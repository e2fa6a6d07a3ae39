package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.SeqPLL
import repro.graph.{GraphGen, Ranking}

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
}
