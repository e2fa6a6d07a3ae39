package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil._

class RankingSpec extends AnyFunSuite {

  test("identity ranking: rank equals vertex id") {
    val r = identityRanking(5)
    assert((0 until 5).forall(v => r(v) == v))
    assert(r.order.toSeq == Seq(4, 3, 2, 1, 0))
  }

  test("order and posOf are inverses") {
    val r = randomRanking(40, seed = 3)
    (0 until 40).foreach(i => assert(r.posOf(r.order(i)) == i))
  }

  test("rankOf must be a permutation") {
    assertThrows[IllegalArgumentException](new Ranking(Array(0, 0, 2)))
  }

  test("byDegree ranks the hub of a star highest") {
    val g = CsrGraph.fromEdges(5, Seq((2, 0, 1), (2, 1, 1), (2, 3, 1), (2, 4, 1)))
    val r = Ranking.byDegree(g)
    assert(r.order(0) == 2)
  }

  test("byDegree breaks ties by smaller id") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1), (2, 3, 1)))
    val r = Ranking.byDegree(g)
    assert(r.order.toSeq == Seq(0, 1, 2, 3))
  }

  test("byScore orders by descending score") {
    val r = Ranking.byScore(Array(0.5, 2.0, 1.0))
    assert(r.order.toSeq == Seq(1, 2, 0))
  }

  test("byApproxBetweenness ranks the bridge of a barbell highest") {
    // two cliques joined through vertex 4
    val es = Seq((0, 1, 1), (0, 2, 1), (1, 2, 1), (5, 6, 1), (5, 7, 1), (6, 7, 1),
      (2, 4, 1), (4, 5, 1))
    val g = CsrGraph.fromEdges(8, es)
    val r = Ranking.byApproxBetweenness(g, samples = 8, seed = 1)
    assert(r.order(0) == 4, s"expected bridge 4 first, got ${r.order.toSeq}")
  }

  test("byApproxBetweenness yields a valid permutation on a grid") {
    val g = GraphGen.grid(6, 6)
    val r = Ranking.byApproxBetweenness(g)
    assert(r.rankOf.sorted.sameElements(0 until g.n))
  }

  test("random ranking is deterministic in the seed") {
    assert(randomRanking(30, 7).rankOf.sameElements(randomRanking(30, 7).rankOf))
  }
}
