package repro.harness

import repro.SparkSpec

/** The query-mode entrypoint end to end at a small scale: a row per
  * dataset, and every Table 4 rule of its check.
  */
class Table4Spec extends SparkSpec {

  test("Table4 at scale 0.02 passes every Table 4 rule") {
    val rows = Table4.run(spark, 0.02)
    assert(rows.map(_.dataset) == Datasets.all.map(_.name))
    assert(rows.size == 12)
    assert(Table4.check(rows).isEmpty, Table4.check(rows))
  }
}
