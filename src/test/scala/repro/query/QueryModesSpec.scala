package repro.query

import repro.{SparkSpec, TestUtil}
import repro.core.{GLL, Labeling}
import repro.graph.{Dijkstra, Ranking, TestGraphs}
import repro.TestUtil._

class QueryModesSpec extends SparkSpec {

  private def fixture(seed: Int) = {
    val (g, _) = TestUtil.graphFor(seed)
    val r      = TestUtil.rankingFor(g, seed)
    val l      = GLL.run(g, r, threads = 4).labeling
    (g, r, l)
  }

  for (seed <- 1 to 8)
    test(s"all three modes agree with Dijkstra (seed=$seed)") {
      val (g, r, l) = fixture(seed)
      val (us, vs)  = QueryModes.genQueries(g.n, 300, seed)
      val d         = allPairs(g)
      val qlsn = QueryModes.qlsn(spark, l, 16, us, vs)
      val qfdl = QueryModes.qfdl(spark, l, r, 16, us, vs)
      val qdol = QueryModes.qdol(spark, l, 16, us, vs)
      us.indices.foreach { i =>
        val expect = d(us(i))(vs(i))
        assert(qlsn.distances(i) == expect, s"QLSN query ${us(i)}->${vs(i)}")
        assert(qfdl.distances(i) == expect, s"QFDL query ${us(i)}->${vs(i)}")
        assert(qdol.distances(i) == expect, s"QDOL query ${us(i)}->${vs(i)}")
      }
    }

  for (q <- Seq(3, 6, 10, 16, 28, 45, 64))
    test(s"zeta is the largest partition count fitting q=$q nodes") {
      val z = QueryModes.zeta(q)
      assert(z * (z - 1) / 2 <= q)
      assert((z + 1) * z / 2 > q)
    }

  test("QLSN memory is q-fold replicated; QFDL stores each label once") {
    val (_, r, l) = fixture(3)
    val (us, vs)  = QueryModes.genQueries(l.n, 50, 3)
    val qlsn = QueryModes.qlsn(spark, l, 16, us, vs)
    val qfdl = QueryModes.qfdl(spark, l, r, 16, us, vs)
    assert(qlsn.memBytesTotal == 16 * l.storageBytes)
    assert(qfdl.memBytesTotal == l.storageBytes)
    assert(qfdl.memBytesMaxNode <= l.storageBytes)
  }

  test("QDOL memory sits between QFDL and QLSN (the 2q/zeta factor)") {
    val (_, r, l) = fixture(5)
    val (us, vs)  = QueryModes.genQueries(l.n, 50, 5)
    val q = 16
    val qlsn = QueryModes.qlsn(spark, l, q, us, vs)
    val qfdl = QueryModes.qfdl(spark, l, r, q, us, vs)
    val qdol = QueryModes.qdol(spark, l, q, us, vs)
    assert(qdol.memBytesTotal > qfdl.memBytesTotal)
    assert(qdol.memBytesTotal < qlsn.memBytesTotal)
  }

  test("latency ordering: QLSN < QDOL < QFDL-with-broadcast on small labels") {
    val (_, r, l) = fixture(7)
    val (us, vs)  = QueryModes.genQueries(l.n, 200, 7)
    val qlsn = QueryModes.qlsn(spark, l, 16, us, vs)
    val qfdl = QueryModes.qfdl(spark, l, r, 16, us, vs)
    val qdol = QueryModes.qdol(spark, l, 16, us, vs)
    assert(qlsn.latencyMicros < qdol.latencyMicros)
    assert(qdol.latencyMicros < qfdl.latencyMicros)
  }

  test("every query mode rejects a node count q below 1") {
    val (_, r, l) = fixture(2)
    val (us, vs)  = QueryModes.genQueries(l.n, 20, 2)
    // and every malformed batch: lengths that differ by one, a vertex -1 or
    // n, and no query at all
    val none = Array.empty[Int]
    val bad = Seq((0, us, vs), (-1, us, vs), (16, us, vs.init), (16, us.init, vs),
      (16, us.updated(3, -1), vs), (16, us, vs.updated(19, l.n)), (16, none, none))
    for ((q, bu, bv) <- bad) {
      intercept[IllegalArgumentException](QueryModes.qlsn(spark, l, q, bu, bv))
      intercept[IllegalArgumentException](QueryModes.qfdl(spark, l, r, q, bu, bv))
      intercept[IllegalArgumentException](QueryModes.qdol(spark, l, q, bu, bv))
    }
  }

  test("genQueries is deterministic and in range") {
    val (us1, vs1) = QueryModes.genQueries(100, 500, 9)
    val (us2, vs2) = QueryModes.genQueries(100, 500, 9)
    assert(us1.sameElements(us2) && vs1.sameElements(vs2))
    assert(us1.forall(u => u >= 0 && u < 100))
  }

  test("modes agree on a disconnected graph (Inf results included)") {
    val g = TestGraphs.randomSparse(30, 18, 5, seed = 11)
    val r = randomRanking(g.n, 11)
    val l = GLL.run(g, r, 4).labeling
    val (us, vs) = QueryModes.genQueries(g.n, 200, 11)
    val a = QueryModes.qlsn(spark, l, 16, us, vs).distances
    val b = QueryModes.qfdl(spark, l, r, 16, us, vs).distances
    val c = QueryModes.qdol(spark, l, 16, us, vs).distances
    assert(a.sameElements(b) && a.sameElements(c))
    assert(a.contains(Dijkstra.Inf), "fixture should include unreachable pairs")
  }

  for (q <- Seq(1, 2, 3, 7, 64))
    test(s"every mode equals Labeling.query at q=$q, on a fixture and on a disconnected graph") {
      val (_, r1, l1) = fixture(1)
      val g2 = TestGraphs.randomSparse(30, 18, 5, seed = 11)
      val r2 = randomRanking(g2.n, 11)
      for ((r, l) <- Seq((r1, l1), (r2, GLL.run(g2, r2, 4).labeling))) {
        val (us, vs) = QueryModes.genQueries(l.n, 200, q)
        val expect = us.indices.map(i => l.query(us(i), vs(i)))
        assert(QueryModes.qlsn(spark, l, q, us, vs).distances.toSeq == expect, "QLSN")
        assert(QueryModes.qfdl(spark, l, r, q, us, vs).distances.toSeq == expect, "QFDL")
        assert(QueryModes.qdol(spark, l, q, us, vs).distances.toSeq == expect, "QDOL")
      }
    }

  test("one QLSN call runs one Spark job of q tasks, one per node") {
    val (_, r, l) = fixture(4)
    for (q <- Seq(3, 16)) {
      val (us, vs) = QueryModes.genQueries(l.n, 200, q)
      def oneJobOfQTasks(name: String)(call: => Unit): Unit = {
        val jobs = jobsOf(s"$name-q$q")(call)
        assert(jobs.jobStages.size == 1, s"$name q=$q: jobs ${jobs.jobStages}")
        assert(jobs.tasks.get == q, s"$name q=$q")
      }
      // the loading call, a resident call on the same labeling, and a QFDL
      // call that loads its slices
      oneJobOfQTasks("qlsn")(QueryModes.qlsn(spark, l, q, us, vs))
      oneJobOfQTasks("qlsn-again")(QueryModes.qlsn(spark, l, q, us, vs))
      oneJobOfQTasks("qfdl")(QueryModes.qfdl(spark, l, r, q, us, vs))
    }
  }

  /** Every mode's answers to 300 pairs drawn with `seed`, over `l` at `q`,
    * each checked against `Labeling.query`, and QFDL's largest node against
    * the largest slice at `q`; returns QLSN's answers.
    */
  private def servedRight(l: Labeling, r: Ranking, q: Int, seed: Long): Array[Long] = {
    val (us, vs) = QueryModes.genQueries(l.n, 300, seed)
    val expect = us.indices.map(i => l.query(us(i), vs(i)))
    val qlsn = QueryModes.qlsn(spark, l, q, us, vs)
    assert(qlsn.distances.toSeq == expect, s"QLSN q=$q")
    val qfdl = QueryModes.qfdl(spark, l, r, q, us, vs)
    assert(qfdl.distances.toSeq == expect, s"QFDL q=$q")
    assert(qfdl.memBytesMaxNode == l.ownerSlices(q).map(_.storageBytes).max, s"QFDL q=$q largest slice")
    assert(QueryModes.qdol(spark, l, q, us, vs).distances.toSeq == expect, s"QDOL q=$q")
    qlsn.distances
  }

  test("the resident labels follow the labeling: A, B, A of the same n through all three modes") {
    // two graphs on the same vertex count whose distances differ, so
    // serving one labeling's resident labels for the other shows
    def labeled(seed: Long) = {
      val g = TestGraphs.randomConnected(60, 40, 9, seed)
      val r = randomRanking(g.n, seed)
      (g, r, GLL.run(g, r, 4).labeling)
    }
    val (ga, ra, la) = labeled(21)
    val (gb, rb, lb) = labeled(22)
    assert(la.n == lb.n)
    val (us, vs) = QueryModes.genQueries(la.n, 300, 5)
    val (da, db) = (allPairs(ga), allPairs(gb))
    assert(us.indices.exists(i => da(us(i))(vs(i)) != db(us(i))(vs(i))), "fixture graphs should differ on some pair")
    for ((name, r, l, d) <- Seq(("A", ra, la, da), ("B", rb, lb, db), ("A", ra, la, da))) {
      val want = us.indices.map(i => d(us(i))(vs(i)))
      assert(QueryModes.qlsn(spark, l, 16, us, vs).distances.toSeq == want, s"QLSN on $name")
      assert(QueryModes.qfdl(spark, l, r, 16, us, vs).distances.toSeq == want, s"QFDL on $name")
      assert(QueryModes.qdol(spark, l, 16, us, vs).distances.toSeq == want, s"QDOL on $name")
    }
  }

  test("QFDL's resident slices follow q: q = 3, then 16, then 3 on one labeling") {
    val (_, r, l) = fixture(6)
    for ((q, i) <- Seq(3, 16, 3).zipWithIndex) servedRight(l, r, q, seed = 30 + i)
  }

  test("QLSN, QFDL, QDOL in Table 4's order, twice, on one labeling equal Labeling.query") {
    val (_, r, l) = fixture(7)
    assert(servedRight(l, r, 16, seed = 40).sameElements(servedRight(l, r, 16, seed = 40)))
  }

  test("QFDL's largest node holds the largest owner slice, less than all labels, at q=16") {
    val (_, r, l) = fixture(3)
    val (us, vs)  = QueryModes.genQueries(l.n, 50, 3)
    val qfdl = QueryModes.qfdl(spark, l, r, 16, us, vs)
    assert(qfdl.memBytesMaxNode == l.ownerSlices(16).map(_.storageBytes).max)
    assert(qfdl.memBytesMaxNode < l.storageBytes)
  }
}
