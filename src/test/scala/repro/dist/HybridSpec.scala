package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.SeqPLL
import repro.graph.{GraphGen, Ranking}
import repro.TestUtil._

class HybridSpec extends SparkSpec {

  for (seed <- 1 to 12)
    test(s"Hybrid outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val (l, _) = Hybrid.run(spark, g, r, q = 1 + seed % 4, psiTh = 3.0)
      TestUtil.assertCanonical(l, g, r)
      TestUtil.assertCover(l, g)
    }

  for (psiTh <- Seq(0.5, 2.0, 10.0, 1000.0))
    test(s"Hybrid canonical for switching threshold psiTh=$psiTh") {
      val g = GraphGen.preferentialAttachment(80, 3, seed = 61)
      val r = Ranking.byDegree(g)
      val (l, _) = Hybrid.run(spark, g, r, q = 4, psiTh = psiTh)
      assert(l.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
    }

  for (eta <- Seq(0, 1, 4, 16, 64))
    test(s"Hybrid canonical with common-table eta=$eta") {
      val g = GraphGen.grid(6, 6, seed = 62)
      val r = Ranking.byApproxBetweenness(g)
      val (l, _) = Hybrid.run(spark, g, r, q = 3, psiTh = 2.0, eta = eta)
      TestUtil.assertCanonical(l, g, r)
    }

  test("a tiny psiTh forces an early switch to DGLL") {
    val g = GraphGen.grid(7, 7, seed = 63)
    val r = Ranking.byApproxBetweenness(g)
    val (_, stats) = Hybrid.run(spark, g, r, q = 2, psiTh = 0.0)
    assert(stats.switchPos > 0 && stats.switchPos < g.n,
      s"expected a switch, got ${stats.switchPos}")
    assert(stats.syncs > 0, "post-switch DGLL must synchronize")
  }

  test("a huge psiTh never switches (pure PLaNT)") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 64)
    val r = Ranking.byDegree(g)
    val (_, stats) = Hybrid.run(spark, g, r, q = 2, psiTh = 1e18)
    assert(stats.switchPos == -1)
  }

  test("Hybrid broadcasts less than DGLL (communication avoidance)") {
    val g = GraphGen.preferentialAttachment(120, 4, seed = 65)
    val r = Ranking.byDegree(g)
    val (_, hs) = Hybrid.run(spark, g, r, q = 4, psiTh = 20.0)
    val (_, ds) = DGLL.run(spark, g, r, q = 4)
    assert(hs.bytesBroadcast < ds.bytesBroadcast,
      s"hybrid ${hs.bytesBroadcast} >= dgll ${ds.bytesBroadcast}")
  }

  test("common table contents match the top-eta hubs' labels") {
    val g = GraphGen.preferentialAttachment(70, 3, seed = 66)
    val r = Ranking.byDegree(g)
    val eta = 8
    val q = 3
    val (l, stats) = Hybrid.run(spark, g, r, q, psiTh = 1e18, eta = eta)
    // without a switch every top-eta hub's tree is planted, so the table,
    // the run's only traffic, holds exactly those hubs' final labels, each
    // sent to the other q - 1 nodes once
    val expected = l.triples.count(t => r.posOf(t.h) < eta)
    assert(expected > 0 && stats.switchPos == -1)
    assert(stats.bytesBroadcast == expected * 12 * (q - 1))
  }

  test("Hybrid with psiTh = ∞ and eta = 0 plants in one Spark job of q tasks, as PLaNT does") {
    val g = GraphGen.preferentialAttachment(70, 3, seed = 68)
    val r = Ranking.byDegree(g)
    val q = 3
    def oneJobOfQTasks(name: String)(call: => Unit): Unit = {
      val jobs = jobsOf(s"$name-q$q")(call)
      assert(jobs.jobStages.size == 1, s"$name: jobs ${jobs.jobStages}")
      assert(jobs.tasks.get == q, name)
    }
    oneJobOfQTasks("hybrid")(Hybrid.run(spark, g, r, q, psiTh = Double.PositiveInfinity, eta = 0))
    oneJobOfQTasks("plant")(Plant.run(spark, g, r, q))
  }

  test("Hybrid and PLaNT reject a node count q below 1") {
    val g = GraphGen.grid(4, 4)
    val r = Ranking.byDegree(g)
    for (q <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Hybrid.run(spark, g, r, q))
      assert(e.getMessage.contains("q must be at least 1"))
      intercept[IllegalArgumentException](Plant.run(spark, g, r, q))
    }
  }

  test("Hybrid rejects a negative eta and a NaN psiTh") {
    val g = GraphGen.grid(4, 4)
    val r = Ranking.byDegree(g)
    def rejected(msg: String)(call: => Any): Unit = {
      val e = intercept[IllegalArgumentException](call)
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    rejected("eta must not be negative")(Hybrid.run(spark, g, r, q = 2, eta = -1))
    rejected("psiTh must be a number")(Hybrid.run(spark, g, r, q = 2, psiTh = Double.NaN))
  }

  test("Hybrid, PLaNT, DGLL and DparaPLL reject a ranking of another graph's size") {
    val g = GraphGen.grid(10, 10)
    val r = identityRanking(25)
    for (build <- Seq[() => Any](() => Hybrid.run(spark, g, r, q = 2), () => Plant.run(spark, g, r, 2),
                                 () => DGLL.run(spark, g, r, 2), () => DGLL.runParaPLL(spark, g, r, 2))) {
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("ranking of 25 vertices for a graph of 100"), e.getMessage)
    }
  }

  test("Hybrid label storage stays partitioned across the switch") {
    val g = GraphGen.preferentialAttachment(90, 3, seed = 67)
    val r = Ranking.byDegree(g)
    val q = 4
    val (l, stats) = Hybrid.run(spark, g, r, q, psiTh = 1.0)
    assert(stats.switchPos > 0, "the run must switch to DGLL")
    assert(stats.perNodeLabels.sum == l.labelCount)
    assert(stats.perNodeLabels.length == q)
    for (i <- 0 until q) assert(stats.perNodeLabels(i) == l.hubPos.count(_ % q == i), s"node $i")
  }
}
