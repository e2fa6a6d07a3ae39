package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  private def isConnected(g: CsrGraph): Boolean =
    g.n == 0 || Dijkstra.sssp(g, 0).count(_ < Dijkstra.Inf) == g.n

  test("grid has rows*cols vertices and the right edge count") {
    val g = GraphGen.grid(4, 6)
    assert(g.n == 24)
    assert(g.m == (4 * 5 + 6 * 3)) // horizontal + vertical edges
  }

  test("grid is connected") {
    assert(isConnected(GraphGen.grid(7, 9)))
  }

  test("grid is deterministic in the seed") {
    val a = GraphGen.grid(5, 5, seed = 3)
    val b = GraphGen.grid(5, 5, seed = 3)
    assert(a.wts.sameElements(b.wts) && a.nbrs.sameElements(b.nbrs))
  }

  test("grid weight range follows the paper's [1, sqrt(n)) rule") {
    val g = GraphGen.grid(10, 10)
    val hi = math.ceil(math.sqrt(100.0)).toInt
    assert(g.wts.forall(w => w >= 1 && w < hi))
  }

  test("preferential attachment vertex/edge counts") {
    val g = GraphGen.preferentialAttachment(100, 3)
    assert(g.n == 100)
    // seed clique C(4,2)=6 edges + 96 vertices * 3 attachments
    assert(g.m == 6 + 96 * 3)
  }

  test("preferential attachment is connected") {
    assert(isConnected(GraphGen.preferentialAttachment(200, 2)))
  }

  test("preferential attachment is deterministic in the seed") {
    val a = GraphGen.preferentialAttachment(80, 3, seed = 5)
    val b = GraphGen.preferentialAttachment(80, 3, seed = 5)
    assert(a.nbrs.sameElements(b.nbrs) && a.wts.sameElements(b.wts))
  }

  test("preferential attachment is degree-skewed") {
    val g = GraphGen.preferentialAttachment(500, 3)
    val degs = (0 until g.n).map(g.degree)
    assert(degs.max > 4 * (2.0 * g.m / g.n), s"max degree ${degs.max} not skewed")
  }

  test("erdosRenyi hits the target edge count without duplicates") {
    val g = GraphGen.erdosRenyi(100, avgDeg = 10)
    assert(g.m == 500)
    val pairs = (0 until g.n).flatMap { v =>
      (g.offsets(v) until g.offsets(v + 1)).map(e => (math.min(v, g.nbrs(e)), math.max(v, g.nbrs(e))))
    }
    assert(pairs.distinct.size == 500)
  }

  test("randomConnected is connected for several seeds") {
    for (s <- 1 to 5)
      assert(isConnected(TestGraphs.randomConnected(40, extra = 10, maxW = 5, seed = s)), s"seed $s")
  }

  test("randomSparse respects the weight cap") {
    val g = TestGraphs.randomSparse(30, 60, maxW = 4, seed = 2)
    assert(g.wts.forall(w => w >= 1 && w <= 4))
  }

  test("paperWeight stays in [1, sqrt(n)) and covers the range") {
    val rnd = new scala.util.Random(1)
    val ws = Seq.fill(2000)(GraphGen.paperWeight(rnd, 100))
    assert(ws.forall(w => w >= 1 && w < 10))
    assert(ws.distinct.size >= 8)
  }
}
