package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.dist.DistStats
import repro.query.QueryModes

/** Each table's `check` on synthetic rows: a conforming set passes, and
  * breaking one rule yields exactly one message, which names it.
  */
class TableChecksSpec extends AnyFunSuite {

  private def assertOnly(violations: Seq[String], phrase: String): Unit = {
    assert(violations.size == 1, violations)
    assert(violations.head.contains(phrase), violations)
  }

  test("Table2.check: 12 rows, road analogs growing, scale-free m >= n - 1") {
    def row(name: String, kind: String, n: Int, m: Long) =
      Table2.Row(name, name.take(3).toUpperCase, kind, 1L, 1L, n, m)
    val ok = Seq("cal", "eas", "ctr", "usa").zipWithIndex.map { case (p, i) =>
      row(s"$p-lite", "road", 100 * (i + 1), 180L * (i + 1)) } ++
      (1 to 8).map(i => row(s"sf$i-lite", "scale-free", 50, 48L + i))
    assert(Table2.check(ok).isEmpty, Table2.check(ok))
    assert(Table2.check(ok.updated(0, ok(0).copy(m = 1))).isEmpty) // road graphs may be sparse
    assertOnly(Table2.check(ok.init), "11 dataset rows, not 12")
    assertOnly(Table2.check(ok.updated(0, ok(0).copy(n = 500))), "road analogs must grow CAL<EAS<CTR<USA")
    assertOnly(Table2.check(ok.updated(4, ok(4).copy(m = 10))), "sf1-lite: m = 10 below n - 1 = 49")
  }

  test("Table3.check: positive CHL ALS and times, SparaPLL ALS within 2 % of CHL, seqPLL slower on heavy sets") {
    def row(name: String) = Table3.Row(name, sparaAls = 10.0, sparaTimeS = 0.5, chlAls = 10.0,
      seqTimeS = 2.0, lccTimeS = 0.4, gllTimeS = 0.3)
    // off the heavy datasets seqPLL may win
    val ok = Seq("cal-lite", "ctr-lite", "usa-lite", "pok-lite").map(row) :+ row("skit-lite").copy(seqTimeS = 0.1)
    def broken(f: Table3.Row => Table3.Row) = Table3.check(ok.updated(2, f(ok(2))))
    assert(Table3.check(ok).isEmpty, Table3.check(ok))
    assert(broken(_.copy(sparaAls = 9.85)).isEmpty) // inside the 2 % slack
    assertOnly(broken(_.copy(chlAls = 0.0)), "usa-lite: CHL ALS 0.0 is not positive")
    assertOnly(broken(_.copy(sparaAls = 9.7)), "usa-lite: SparaPLL ALS 9.7 below CHL 10.0")
    assertOnly(broken(_.copy(lccTimeS = 0.0)), "usa-lite: a build time is not positive")
    assertOnly(broken(_.copy(seqTimeS = 0.3)), "usa-lite: seqPLL 0.3s not slower than GLL 0.3s")
  }

  test("Table4.check: QLSN = q x QFDL < QDOL < QLSN memory, QLSN latency below QDOL's, positive throughput") {
    // each mode's total and largest node: a QLSN node holds all 1000 B
    def mode(name: String, latency: Double, mem: Long, maxNode: Long) =
      QueryModes.ModeMetrics(name, Array.empty[Long], 1e5, latency, mem, maxNode)
    val ok = Table4.Row("cal-lite", mode("QLSN", 1.0, Table4.Q * 1000L, 1000L), mode("QFDL", 20.3, 1000L, 80L),
      mode("QDOL", 7.0, 5300L, 400L), Table4.FirstCallMs(80.0, 60.0, 40.0))
    // the rule that QDOL's part pairs fit q nodes reads the constant q, not
    // the rows, so no row set breaks it
    assert(Table4.check(Seq(ok)).isEmpty, Table4.check(Seq(ok)))
    assertOnly(Table4.check(Seq(ok.copy(qlsn = ok.qlsn.copy(memBytesTotal = 15000L)))),
      "cal-lite: QLSN memory is not q x QFDL's")
    assertOnly(Table4.check(Seq(ok.copy(qdol = ok.qdol.copy(memBytesTotal = 1000L)))),
      "cal-lite: QDOL memory not above QFDL's")
    assertOnly(Table4.check(Seq(ok.copy(qdol = ok.qdol.copy(memBytesTotal = 16000L)))),
      "cal-lite: QDOL memory not below QLSN's")
    assertOnly(Table4.check(Seq(ok.copy(qfdl = ok.qfdl.copy(memBytesMaxNode = 400L)))),
      "cal-lite: QFDL's largest node not below QDOL's")
    assertOnly(Table4.check(Seq(ok.copy(qlsn = ok.qlsn.copy(memBytesMaxNode = 400L)))),
      "cal-lite: QDOL's largest node not below QLSN's")
    assertOnly(Table4.check(Seq(ok.copy(qlsn = ok.qlsn.copy(latencyMicros = 7.0)))),
      "cal-lite: QLSN latency not below QDOL's")
    assertOnly(Table4.check(Seq(ok.copy(qfdl = ok.qfdl.copy(throughputQps = 0.0)))),
      "cal-lite: a throughput is not positive")
  }

  test("every table entrypoint rejects a scale that is not a finite number above 0") {
    for (bad <- Seq("-1", "0", "NaN", "Infinity", "-Infinity", "1e400", "x")) {
      val e = intercept[IllegalArgumentException](TableMain.scale(Array(bad), 1.0))
      assert(e.getMessage.contains(s"'$bad'"), e.getMessage)
      for (table <- Seq[Array[String] => Unit](Table2.main, Table3.main, Table4.main, DistScaling.main))
        intercept[IllegalArgumentException](table(Array(bad)))
    }
    assert(TableMain.scale(Array.empty, 0.5) == 0.5)
    assert(TableMain.scale(Array("0.02"), 1.0) == 0.02)
  }

  test("DistScaling.check: q-invariant CHL ALS, PLaNT silent, DparaPLL no smaller and growing, Hybrid bcast <= DGLL") {
    def stats(bcast: Long) = DistStats(timeMs = 10, syncs = 0, labelsGenerated = 0, labelsFinal = 0,
      redundantRemoved = 0, bytesBroadcast = bcast, bytesAllReduce = 0, explored = 0, perNodeLabels = Array(1L))
    val ok = DistScaling.Row("cal-lite", DistScaling.Qs.flatMap { q =>
      Seq(DistScaling.Cell("PLaNT", q, stats(0L), 30.0),
        DistScaling.Cell("Hybrid", q, stats(100L * q), 30.0),
        DistScaling.Cell("DGLL", q, stats(200L * q), 30.0),
        DistScaling.Cell("DparaPLL", q, stats(300L * q), 30.0 + q))
    })
    def broken(algo: String, q: Int)(f: DistScaling.Cell => DistScaling.Cell) =
      DistScaling.check(Seq(ok.copy(cells = ok.cells.map(c => if (c.algo == algo && c.q == q) f(c) else c))))
    assert(DistScaling.check(Seq(ok)).isEmpty, DistScaling.check(Seq(ok)))
    for (a <- Seq("PLaNT", "Hybrid", "DGLL"))
      assertOnly(broken(a, 4)(_.copy(als = 31.0)), s"cal-lite/$a ALS varies with q")
    assertOnly(broken("PLaNT", 8)(_.copy(stats = stats(5L))), "cal-lite q=8: PLaNT broadcasts")
    assertOnly(broken("DparaPLL", 1)(_.copy(als = 29.0)), "cal-lite q=1: DparaPLL ALS below CHL")
    assertOnly(broken("DparaPLL", 16)(_.copy(als = 30.5)), "cal-lite: DparaPLL ALS should not shrink with q")
    assertOnly(broken("Hybrid", 2)(_.copy(stats = stats(500L))), "cal-lite q=2: Hybrid bcast 500 > DGLL 400")
  }
}
