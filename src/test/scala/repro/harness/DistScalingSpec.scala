package repro.harness

import repro.SparkSpec

/** The distributed entrypoint end to end at a small scale: every run it
  * makes, and every fig. 8/9 rule of its check.
  */
class DistScalingSpec extends SparkSpec {

  test("DistScaling at scale 0.02 passes every fig. 8/9 rule") {
    val rows = DistScaling.run(spark, 0.02)
    assert(rows.map(_.dataset) == Seq("cal-lite", "skit-lite", "act-lite"))
    assert(rows.forall(_.cells.size == 4 * DistScaling.Qs.size))
    assert(DistScaling.check(rows).isEmpty, DistScaling.check(rows))
  }
}
