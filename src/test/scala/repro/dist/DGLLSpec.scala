package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.SeqPLL
import repro.graph.{GraphGen, Ranking, TestGraphs}
import repro.TestUtil._

class DGLLSpec extends SparkSpec {

  for (seed <- 1 to 12)
    test(s"DGLL outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val (l, _) = DGLL.run(spark, g, r, q = 1 + seed % 4)
      TestUtil.assertCanonical(l, g, r)
      TestUtil.assertCover(l, g)
    }

  for (q <- Seq(1, 2, 4, 8))
    test(s"DGLL canonical and q-invariant at q=$q") {
      val g = GraphGen.preferentialAttachment(70, 3, seed = 51)
      val r = Ranking.byDegree(g)
      val (l, _) = DGLL.run(spark, g, r, q)
      assert(l.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
    }

  for (beta <- Seq(2, 4, 8))
    test(s"DGLL canonical for superstep growth beta=$beta") {
      val g = GraphGen.grid(6, 6, seed = 52)
      val r = Ranking.byApproxBetweenness(g)
      val (l, _) = DGLL.run(spark, g, r, q = 3, beta = beta)
      TestUtil.assertCanonical(l, g, r)
    }

  test("DGLL label exchange traffic is metered") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 53)
    val r = Ranking.byDegree(g)
    val (l, stats) = DGLL.run(spark, g, r, q = 4)
    assert(stats.bytesBroadcast > 0, "superstep exchange must be accounted")
    assert(stats.bytesAllReduce > 0, "cleaning bitvectors must be accounted")
    assert(stats.syncs >= 1)
    assert(stats.labelsGenerated >= l.labelCount)
  }

  test("DGLL cleaning removes the cross-node redundant labels") {
    val g = GraphGen.preferentialAttachment(100, 4, seed = 54)
    val r = Ranking.byDegree(g)
    val (l, stats) = DGLL.run(spark, g, r, q = 8)
    assert(stats.labelsGenerated == l.labelCount + stats.redundantRemoved)
  }

  test("DGLL partitions label storage by hub owner") {
    val g = GraphGen.preferentialAttachment(80, 3, seed = 55)
    val r = Ranking.byDegree(g)
    val q = 4
    val (l, stats) = DGLL.run(spark, g, r, q)
    assert(stats.perNodeLabels.length == q)
    assert(stats.perNodeLabels.sum == l.labelCount)
    for (i <- 0 until q) assert(stats.perNodeLabels(i) == l.hubPos.count(_ % q == i), s"node $i")
  }

  test("superstepSizes grow geometrically and cover the queue") {
    val sizes = DGLL.superstepSizes(1000, beta = 8)
    assert(sizes.sum >= 1000)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => b >= a })
    assert(sizes.length <= math.ceil(math.log(1000.0) / math.log(8.0)).toInt + 1)
  }

  test("superstepSizes handles tiny and empty queues") {
    assert(DGLL.superstepSizes(0, 8).isEmpty)
    assert(DGLL.superstepSizes(1, 8).sum >= 1)
    assert(DGLL.superstepSizes(5, 8).sum >= 5)
  }

  test("DGLL rejects a superstep growth beta below 2") {
    val g = GraphGen.grid(4, 4)
    intercept[IllegalArgumentException](DGLL.run(spark, g, Ranking.byDegree(g), q = 2, beta = 1))
  }

  test("DGLL and DparaPLL reject a node count q below 1") {
    val g = GraphGen.grid(4, 4)
    val r = Ranking.byDegree(g)
    for (q <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](DGLL.run(spark, g, r, q))
      assert(e.getMessage.contains("q must be at least 1"))
      intercept[IllegalArgumentException](DGLL.runParaPLL(spark, g, r, q))
    }
  }

  test("disconnected graphs survive the distributed path") {
    val g = TestGraphs.randomSparse(40, 30, 5, seed = 56)
    val r = randomRanking(g.n, 56)
    val (l, _) = DGLL.run(spark, g, r, q = 4)
    TestUtil.assertCover(l, g)
    TestUtil.assertCanonical(l, g, r)
  }
}
