package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{CsrGraph, GraphGen, Ranking}
import repro.TestUtil._

/** GLL and LCC against SeqPLL on graphs large enough that concurrent trees
  * race within a superstep and cleaning removes real mistakes, a regime the
  * ReferenceCHL-sized graphs of the other suites never reach.
  */
class CoreDifferentialSpec extends AnyFunSuite {

  /** name → (graph, ranking, its CHL by SeqPLL), built on first use. */
  private lazy val cases: Map[String, (CsrGraph, Ranking, Labeling)] = {
    val grid = GraphGen.grid(60, 60, seed = 104)
    val ba   = GraphGen.preferentialAttachment(2500, 3, seed = 91)
    Map(
      "grid" -> withChl(grid, Ranking.byApproxBetweenness(grid, samples = 16, seed = 17)),
      "ba"   -> withChl(ba, Ranking.byDegree(ba)))
  }
  private def withChl(g: CsrGraph, rank: Ranking) = (g, rank, SeqPLL.run(g, rank).labeling)

  for (name <- Seq("grid", "ba"); threads <- Seq(1, 4, 16))
    test(s"GLL (alpha 1 and 4) and LCC equal SeqPLL on the $name graph at $threads threads") {
      val (g, rank, chl) = cases(name)
      val runs = Seq(
        "GLL alpha=1"    -> GLL.run(g, rank, threads, alpha = 1.0),
        "GLL alpha=4"    -> GLL.run(g, rank, threads, alpha = 4.0),
        // many supersteps, each cleaned while the global table is large
        "GLL alpha=0.25" -> GLL.run(g, rank, threads, alpha = 0.25),
        "LCC"            -> GLL.runLCC(g, rank, threads))
      for ((what, r) <- runs) {
        TestUtil.assertSameLabels(chl, r.labeling, s"$what, $name, $threads threads")
        assert(r.labelsGenerated == r.labeling.labelCount + r.redundantRemoved)
        if (threads >= 4)
          assert(r.redundantRemoved > 0, s"$what, $name, $threads threads cleaned nothing")
      }
    }

  test("one reused DijkstraScratch builds the same trees as a fresh one per root") {
    val g       = GraphGen.preferentialAttachment(800, 3, seed = 5)
    val rank    = Ranking.byDegree(g)
    val buffers = new LabelBuffers(g.n, threadSafe = false)
    val tables  = Array(buffers)
    val reused  = new DijkstraScratch(g.n)
    def tree(root: Int, scratch: DijkstraScratch): Seq[(Int, Long)] = {
      val out = Seq.newBuilder[(Int, Long)]
      PrunedDijkstra.buildTree(g, rank, root, tables, rankQueries = true, scratch,
        sink = (v, d) => out += ((v, d)))
      out.result()
    }
    for (p <- 0 until g.n) {
      val root  = rank.order(p)
      val again = tree(root, reused)
      val fresh = tree(root, new DijkstraScratch(g.n))
      assert(again == fresh, s"root $root (position $p)")
      fresh.foreach { case (v, d) => buffers.add(v, p, d) }
    }
    assert(buffers.toLabeling(rank).tripleSet == SeqPLL.run(g, rank).labeling.tripleSet)
  }
}
