package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class CsrGraphSpec extends AnyFunSuite {

  test("builds a triangle with symmetric adjacency") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1, 5), (1, 2, 3), (0, 2, 7)))
    assert(g.n == 3)
    assert(g.m == 3)
    assert(g.arcCount == 6)
    assert((0 until 3).forall(v => g.degree(v) == 2))
  }

  test("degree counts both directions of undirected edges") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    assert(g.degree(0) == 3)
    assert(g.degree(1) == 1 && g.degree(2) == 1 && g.degree(3) == 1)
  }

  test("self-loops are dropped") {
    val g = CsrGraph.fromEdges(3, Seq((0, 0, 1), (0, 1, 2)))
    assert(g.m == 1)
    assert(g.degree(0) == 1)
  }

  test("directed=false stores arcs once per direction") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1, 2)), undirected = false)
    assert(g.degree(0) == 1 && g.degree(1) == 0)
  }

  test("rejects non-positive weights") {
    assertThrows[IllegalArgumentException](CsrGraph.fromEdges(2, Seq((0, 1, 0))))
    assertThrows[IllegalArgumentException](CsrGraph.fromEdges(2, Seq((0, 1, -3))))
  }

  test("the constructor rejects a non-positive weight or an out-of-range arc head") {
    assertThrows[IllegalArgumentException](new CsrGraph(2, Array(0, 1, 2), Array(1, 0), Array(0, 0)))
    assertThrows[IllegalArgumentException](new CsrGraph(2, Array(0, 1, 2), Array(1, 0), Array(1, -2)))
    assertThrows[IllegalArgumentException](new CsrGraph(2, Array(0, 1, 2), Array(2, 0), Array(1, 1)))
    assertThrows[IllegalArgumentException](new CsrGraph(2, Array(0, 1, 2), Array(1, -1), Array(1, 1)))
    assert(new CsrGraph(2, Array(0, 1, 2), Array(1, 0), Array(3, 3)).maxWeight == 3)
  }

  test("rejects out-of-range endpoints") {
    assertThrows[IllegalArgumentException](CsrGraph.fromEdges(2, Seq((0, 2, 1))))
  }

  test("empty graph") {
    val g = CsrGraph.fromEdges(5, Seq.empty)
    assert(g.m == 0 && g.maxWeight == 0)
    assert((0 until 5).forall(g.degree(_) == 0))
  }

  test("maxWeight and distanceBound") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1, 4), (1, 2, 9)))
    assert(g.maxWeight == 9)
    assert(g.distanceBound == 9L * 3 + 1)
  }

  test("rejects graphs beyond the Dijkstra heap's packing limits") {
    // one vertex too many for the heap's 21-bit vertex field
    val tooMany = intercept[IllegalArgumentException](CsrGraph.fromEdges((1 << 21) + 1, Seq.empty))
    assert(tooMany.getMessage.contains("2097153 vertices exceeds the limit of 2097152"))
    assert(CsrGraph.fromEdges(1 << 21, Seq.empty).n == (1 << 21))
    // 2100 * Int.MaxValue > 2^42: a shortest path could overflow the key
    val tooFar = intercept[IllegalArgumentException](
      CsrGraph.fromEdges(2100, Seq((0, 1, Int.MaxValue))))
    assert(tooFar.getMessage.contains("reaches the limit 4398046511104 (2^42)"))
    assert(CsrGraph.fromEdges(2000, Seq((0, 1, Int.MaxValue))).n == 2000)
  }

  test("adjacency lists contain exactly the inserted neighbors") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1), (0, 2, 2), (1, 3, 3)))
    val n0 = (g.offsets(0) until g.offsets(1)).map(g.nbrs).toSet
    assert(n0 == Set(1, 2))
    val n3 = (g.offsets(3) until g.offsets(4)).map(g.nbrs).toSet
    assert(n3 == Set(1))
  }

  test("parallel edges are preserved (Dijkstra picks the cheaper)") {
    val g = CsrGraph.fromEdges(2, Seq((0, 1, 5), (0, 1, 2)))
    assert(g.m == 2)
    assert(Dijkstra.sssp(g, 0)(1) == 2)
  }

  for (seed <- 1 to 6)
    test(s"CSR round-trip preserves weighted adjacency (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val n = 10 + rnd.nextInt(20)
      val edges = Seq.fill(30)((rnd.nextInt(n), rnd.nextInt(n), 1 + rnd.nextInt(9)))
        .filter { case (u, v, _) => u != v }
      val g = CsrGraph.fromEdges(n, edges)
      val expect = edges.flatMap { case (u, v, w) => Seq((u, v, w), (v, u, w)) }
        .groupBy(identity).view.mapValues(_.size).toMap
      val got = (0 until n).flatMap { v =>
        (g.offsets(v) until g.offsets(v + 1)).map(e => (v, g.nbrs(e), g.wts(e)))
      }.groupBy(identity).view.mapValues(_.size).toMap
      assert(got == expect)
    }
}
