package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{CsrGraph, GraphGen, Ranking, TestGraphs}
import repro.TestUtil._

class SeqPLLSpec extends AnyFunSuite {

  for (seed <- 1 to 20)
    test(s"seqPLL emits exactly the canonical labeling (seed=$seed)") {
      val (g, kind) = TestUtil.graphFor(seed)
      val r         = TestUtil.rankingFor(g, seed)
      val res       = SeqPLL.run(g, r)
      TestUtil.assertCanonical(res.labeling, g, r)
      TestUtil.assertCover(res.labeling, g)
    }

  test("seqPLL on a grid with betweenness ranking") {
    val g = GraphGen.grid(5, 6)
    val r = Ranking.byApproxBetweenness(g)
    val l = SeqPLL.run(g, r).labeling
    TestUtil.assertCanonical(l, g, r)
  }

  test("seqPLL on a scale-free graph with degree ranking") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 4)
    val r = Ranking.byDegree(g)
    val l = SeqPLL.run(g, r).labeling
    TestUtil.assertCanonical(l, g, r)
  }

  test("every vertex gets a self label") {
    val g = TestGraphs.randomSparse(25, 40, 5, seed = 6)
    val r = randomRanking(g.n, 6)
    val l = SeqPLL.run(g, r).labeling
    (0 until g.n).foreach(v => assert(l.tripleSet.contains((v, v, 0L)), s"no self label at $v"))
  }

  test("hubs always outrank the labeled vertex (rank queries)") {
    val g = TestGraphs.randomConnected(30, 10, 6, seed = 7)
    val r = randomRanking(g.n, 7)
    val l = SeqPLL.run(g, r).labeling
    l.triples.foreach(t => assert(t.v == t.h || r(t.h) > r(t.v), s"hub ${t.h} below vertex ${t.v}"))
  }

  test("highest-ranked vertex has only its self label") {
    val g = TestGraphs.randomConnected(20, 8, 4, seed = 8)
    val r = randomRanking(g.n, 8)
    val l = SeqPLL.run(g, r).labeling
    val top = r.order(0)
    assert(l.hubs(top).toSeq == Seq(top))
  }

  test("isolated vertices label only themselves") {
    val g = CsrGraph.fromEdges(5, Seq((0, 1, 1))) // 2,3,4 isolated
    val r = identityRanking(5)
    val l = SeqPLL.run(g, r).labeling
    Seq(2, 3, 4).foreach(v => assert(l.tripleSet.filter(_._1 == v) == Set((v, v, 0L))))
  }

  test("explored is at least the number of labels") {
    val g = GraphGen.grid(4, 4)
    val r = identityRanking(g.n)
    val res = SeqPLL.run(g, r)
    assert(res.explored >= res.labeling.labelCount)
  }

  test("seqPLL rejects a ranking of another graph's size") {
    val g = GraphGen.grid(10, 10)
    val e = intercept[IllegalArgumentException](SeqPLL.run(g, identityRanking(25)))
    assert(e.getMessage.contains("ranking of 25 vertices for a graph of 100"), e.getMessage)
  }

  test("deterministic across runs") {
    val g = GraphGen.preferentialAttachment(50, 2, seed = 9)
    val r = Ranking.byDegree(g)
    assert(SeqPLL.run(g, r).labeling.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
  }
}
