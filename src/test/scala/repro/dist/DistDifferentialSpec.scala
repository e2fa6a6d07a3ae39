package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.SeqPLL
import repro.graph.{GraphGen, Ranking, TestGraphs}

/** The distributed constructors against SeqPLL on a graph large enough that
  * trees race within a superstep and every node stores thousands of labels,
  * a regime the ReferenceCHL-sized graphs of the other suites never reach.
  */
class DistDifferentialSpec extends SparkSpec {

  private lazy val g    = GraphGen.preferentialAttachment(2500, 3, seed = 91)
  private lazy val rank = Ranking.byDegree(g)
  private lazy val chl  = SeqPLL.run(g, rank).labeling

  for (q <- Seq(1, 3, 8, 16))
    test(s"PLaNT, Hybrid and DGLL equal SeqPLL on a 2500-vertex BA graph at q=$q") {
      val (pl, ps) = Plant.run(spark, g, rank, q)
      TestUtil.assertSameLabels(chl, pl, s"PLaNT q=$q")
      assert(ps.perNodeLabels.min >= 1000, s"q=$q: ${ps.perNodeLabels.toSeq}")

      val (hl, hs) = Hybrid.run(spark, g, rank, q)
      assert(hs.switchPos > 0 && hs.switchPos < g.n, s"Hybrid q=$q did not switch")
      TestUtil.assertSameLabels(chl, hl, s"Hybrid q=$q")

      val (dl, ds) = DGLL.run(spark, g, rank, q)
      assert(ds.redundantRemoved > 0 || q == 1, s"DGLL q=$q cleaned nothing")
      TestUtil.assertSameLabels(chl, dl, s"DGLL q=$q")
    }

  // Random cases: a 100–300-vertex graph and ranking, q, Ψ_th, η and β are
  // drawn from the case's seed, which the test name records.
  for (seed <- 1 to 8) {
    val rnd  = new scala.util.Random(seed)
    val n    = 100 + rnd.nextInt(201)
    val g    = rnd.nextInt(4) match {
      case 0 => TestGraphs.randomSparse(n, 2 * n, maxW = 9, seed)
      case 1 => TestGraphs.randomConnected(n, extra = n / 2, maxW = 7, seed)
      case 2 => GraphGen.grid(10, n / 10, seed)
      case _ => GraphGen.preferentialAttachment(n, 2 + rnd.nextInt(3), seed)
    }
    val q     = 1 + rnd.nextInt(8)
    val psiTh = rnd.nextDouble() * 50
    val eta   = rnd.nextInt(33)
    val beta  = 2 + rnd.nextInt(15)
    val rankBy = rnd.nextInt(3)
    test(s"PLaNT, Hybrid and DGLL equal SeqPLL on drawn case $seed: n=${g.n}, q=$q, eta=$eta, beta=$beta") {
      val r = rankBy match {
        case 0 => Ranking.byDegree(g)
        case 1 => Ranking.byApproxBetweenness(g, samples = 8, seed = seed)
        case _ => TestUtil.randomRanking(g.n, seed)
      }
      val chl = SeqPLL.run(g, r).labeling
      TestUtil.assertSameLabels(chl, Plant.run(spark, g, r, q)._1, "PLaNT")
      TestUtil.assertSameLabels(chl, Hybrid.run(spark, g, r, q, psiTh, eta)._1, s"Hybrid psiTh=$psiTh")
      TestUtil.assertSameLabels(chl, DGLL.run(spark, g, r, q, beta)._1, "DGLL")
    }
  }
}

