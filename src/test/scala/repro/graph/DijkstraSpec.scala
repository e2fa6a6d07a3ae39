package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._

class DijkstraSpec extends AnyFunSuite {

  test("hand-checked path graph") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    assert(Dijkstra.sssp(g, 0).toSeq == Seq(0L, 2L, 5L, 9L))
  }

  test("takes the cheaper of two routes") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1, 1), (1, 2, 1), (0, 2, 5)))
    assert(Dijkstra.sssp(g, 0)(2) == 2)
  }

  test("unreachable vertices stay at Inf") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1)))
    val d = Dijkstra.sssp(g, 0)
    assert(d(2) == Dijkstra.Inf && d(3) == Dijkstra.Inf)
  }

  test("distance to self is zero") {
    val g = TestGraphs.randomConnected(20, 5, 7, seed = 1)
    (0 until g.n).foreach(v => assert(Dijkstra.sssp(g, v)(v) == 0))
  }

  for (seed <- 1 to 16)
    test(s"Dijkstra matches Floyd-Warshall on random graph (seed=$seed)") {
      val g  = TestGraphs.randomSparse(15 + seed, 30 + 2 * seed, maxW = 9, seed)
      val dj = allPairs(g)
      val fw = TestGraphs.floydWarshall(g)
      for (u <- 0 until g.n; v <- 0 until g.n)
        assert(dj(u)(v) == fw(u)(v), s"($u,$v): ${dj(u)(v)} vs ${fw(u)(v)}")
    }

  test("symmetric distances on undirected graphs") {
    val g = TestGraphs.randomSparse(25, 50, maxW = 6, seed = 9)
    val d = allPairs(g)
    for (u <- 0 until g.n; v <- 0 until g.n) assert(d(u)(v) == d(v)(u))
  }

  test("LongMinHeap pops in sorted order") {
    val h = new LongMinHeap(4)
    val rnd = new scala.util.Random(3)
    val items = Seq.fill(500)((rnd.nextInt(100000).toLong, rnd.nextInt(1000)))
    items.foreach { case (d, v) => h.push(d, v) }
    var prev = -1L
    var count = 0
    while (h.nonEmpty) {
      assert(h.topDist >= prev)
      prev = h.topDist
      h.pop(); count += 1
    }
    assert(count == 500)
  }
}
