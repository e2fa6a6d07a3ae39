package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{CsrGraph, Dijkstra, GraphGen, LongMinHeap, Ranking, TestGraphs}
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
      val variants = Seq[(String, () => GLL.Result)](
        "GLL alpha=1"    -> (() => GLL.run(g, rank, threads, alpha = 1.0)),
        "GLL alpha=4"    -> (() => GLL.run(g, rank, threads, alpha = 4.0)),
        // many supersteps, each cleaned while the global table is large
        "GLL alpha=0.25" -> (() => GLL.run(g, rank, threads, alpha = 0.25)),
        "LCC"            -> (() => GLL.runLCC(g, rank, threads)))
      // A tree built after another sees its labels, so threads that happen
      // to run one after another emit no redundant label. At 4 or more
      // threads a variant is therefore built again, up to `tries` times,
      // until one build cleans something; every build must give the CHL.
      val tries = if (threads >= 4) 5 else 1
      for ((what, build) <- variants) {
        val cleaned = Iterator.fill(tries)(build()).exists { r =>
          TestUtil.assertSameLabels(chl, r.labeling, s"$what, $name, $threads threads")
          assert(r.labelsGenerated == r.labeling.labelCount + r.redundantRemoved)
          r.redundantRemoved > 0
        }
        if (threads >= 4)
          assert(cleaned, s"$what, $name, $threads threads cleaned nothing in $tries builds")
      }
    }

  test("GLL.runParaPLL at 1 thread equals SeqPLL") {
    // one thread builds the trees in rank order, each seeing every earlier
    // tree's labels, so even without rank queries nothing is left to clean
    for (name <- Seq("grid", "ba")) {
      val (g, rank, chl) = cases(name)
      val r = GLL.runParaPLL(g, rank, threads = 1)
      TestUtil.assertSameLabels(chl, r.labeling, s"SparaPLL, $name")
      assert(r.labelsGenerated == r.labeling.labelCount && r.redundantRemoved == 0, name)
    }
  }

  // Random cases: a 100–300-vertex graph and ranking, α (log-uniform in
  // [0.05, 8]) and the thread count are drawn from the case's seed, which
  // the test name records.
  for (seed <- 1 to 16) {
    val rnd = new scala.util.Random(seed)
    val n   = 100 + rnd.nextInt(201)
    val g   = rnd.nextInt(4) match {
      case 0 => TestGraphs.randomSparse(n, 2 * n, maxW = 9, seed)
      case 1 => TestGraphs.randomConnected(n, extra = n / 2, maxW = 7, seed)
      case 2 => GraphGen.grid(10, n / 10, seed)
      case _ => GraphGen.preferentialAttachment(n, 2 + rnd.nextInt(3), seed)
    }
    val alpha   = math.exp(math.log(0.05) + rnd.nextDouble() * math.log(8 / 0.05))
    val threads = 1 + rnd.nextInt(8)
    val rankBy  = rnd.nextInt(3)
    test(f"GLL and LCC equal SeqPLL on drawn case $seed: n=${g.n}, alpha=$alpha%.3f, threads=$threads") {
      val rank = rankBy match {
        case 0 => Ranking.byDegree(g)
        case 1 => Ranking.byApproxBetweenness(g, samples = 8, seed = seed)
        case _ => TestUtil.randomRanking(g.n, seed)
      }
      val chl = SeqPLL.run(g, rank).labeling
      for ((what, r) <- Seq("GLL" -> GLL.run(g, rank, threads, alpha), "LCC" -> GLL.runLCC(g, rank, threads))) {
        TestUtil.assertSameLabels(chl, r.labeling, what)
        assert(r.labelsGenerated == r.labeling.labelCount + r.redundantRemoved, what)
      }
    }
  }

  // Int weights cap a graph's distances near maxWeight * n, and CsrGraph
  // admits maxWeight * n + 1 < 2^42 (LongMinHeap.MaxDistance). At weight
  // Int.MaxValue that is a path of 2,048 vertices, whose end-to-end distance
  // is 2^42 - 2^31 - 2,047: the longest any admitted graph can have with
  // these weights. ReferenceCHL is cubic, so it checks a 5x20 grid of the
  // same weight; on the path the reference is the CHL's definition itself:
  // `h` is a hub of `v` iff `h` outranks every other vertex between them.
  test("at the ingest distance limit SeqPLL, GLL and LCC give the CHL, and queries equal Dijkstra") {
    val w    = Int.MaxValue
    val path = CsrGraph.fromEdges(2048, (1 until 2048).map(v => (v - 1, v, w)))
    assert(path.distanceBound < LongMinHeap.MaxDistance && path.distanceBound + w >= LongMinHeap.MaxDistance)
    assert(Dijkstra.sssp(path, 0)(2047) == 2047L * w)
    val grid = CsrGraph.fromEdges(100, (0 until 100).flatMap { v =>
      (if (v % 20 < 19) Seq((v, v + 1, w)) else Nil) ++ (if (v < 80) Seq((v, v + 20, w)) else Nil) })
    def pathChl(rank: Ranking): Labeling = {
      val ts = Set.newBuilder[(Int, Int, Long)]
      for (v <- 0 until path.n; dir <- Seq(-1, 1)) {
        var top = -1 // the highest rank from v to u
        var u = v
        while (u >= 0 && u < path.n) {
          if (rank(u) > top) { top = rank(u); ts += ((v, u, math.abs(v - u).toLong * w)) }
          u += dir
        }
      }
      fromTriples(rank, ts.result())
    }
    for ((name, g, seed) <- Seq(("2048-vertex path", path, 3), ("5x20 grid", grid, 4))) {
      val rank     = randomRanking(g.n, seed)
      val expected = if (g eq path) pathChl(rank) else ReferenceCHL(g, rank)
      val chl      = SeqPLL.run(g, rank).labeling
      TestUtil.assertSameLabels(expected, chl, s"SeqPLL, $name")
      assertCover(chl, g)
      for ((what, r) <- Seq(
          "GLL, 1 thread"  -> GLL.run(g, rank, 1, alpha = 4.0),
          "GLL, 4 threads" -> GLL.run(g, rank, 4, alpha = 4.0),
          "LCC, 4 threads" -> GLL.runLCC(g, rank, 4)))
        TestUtil.assertSameLabels(expected, r.labeling, s"$what, $name")
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
