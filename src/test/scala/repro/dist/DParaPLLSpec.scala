package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.ReferenceCHL
import repro.graph.{GraphGen, Ranking}

class DParaPLLSpec extends SparkSpec {

  private def dparapll(g: repro.graph.CsrGraph, r: Ranking, q: Int) =
    DGLL.runParaPLL(spark, g, r, q)

  for (seed <- 1 to 10)
    test(s"DparaPLL satisfies the cover property (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val (l, _) = dparapll(g, r, q = 1 + seed % 4)
      TestUtil.assertCover(l, g)
    }

  for (q <- Seq(2, 4, 8))
    test(s"DparaPLL ALS at q=$q is at least the CHL ALS") {
      val g = GraphGen.preferentialAttachment(70, 3, seed = 71)
      val r = Ranking.byDegree(g)
      val (l, _) = dparapll(g, r, q)
      assert(l.labelCount >= ReferenceCHL(g, r).labelCount)
    }

  test("DparaPLL label size degrades as q grows (fig. 9's shape)") {
    val g = GraphGen.preferentialAttachment(120, 4, seed = 72)
    val r = Ranking.byDegree(g)
    val als1 = dparapll(g, r, 1)._1.als
    val als8 = dparapll(g, r, 8)._1.als
    assert(als8 >= als1, s"q=8 ALS $als8 < q=1 ALS $als1")
  }

  test("DparaPLL replicates all labels on every node (no cleaning)") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 73)
    val r = Ranking.byDegree(g)
    val (l, stats) = dparapll(g, r, 4)
    assert(stats.redundantRemoved == 0)
    assert(stats.perNodeLabels.forall(_ == l.labelCount))
  }

  test("DparaPLL exchanges labels but never cleans (no allreduce bytes)") {
    val g = GraphGen.grid(6, 6, seed = 74)
    val r = Ranking.byApproxBetweenness(g)
    val (_, stats) = dparapll(g, r, 4)
    assert(stats.bytesBroadcast > 0 && stats.bytesAllReduce == 0)
  }
}
