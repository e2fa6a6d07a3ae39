package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{CsrGraph, TestGraphs}
import repro.TestUtil._

class ReferenceCHLSpec extends AnyFunSuite {

  test("path graph with identity ranking") {
    // 0 -1- 1 -1- 2, rank(v)=v. Pairs: (0,1)→hub 1; (0,2)→hub 2; (1,2)→hub 2
    val g = CsrGraph.fromEdges(3, Seq((0, 1, 1), (1, 2, 1)))
    val r = identityRanking(3)
    assert(ReferenceCHL.labelSet(g, r) == Set(
      (0, 0, 0L), (1, 1, 0L), (2, 2, 0L), // self labels via (v,v) pairs
      (0, 1, 1L),                         // pair (0,1)
      (0, 2, 2L), (1, 2, 1L)))            // pairs (0,2) and (1,2)
  }

  test("star graph: center ranked highest covers everything") {
    val g = CsrGraph.fromEdges(4, Seq((3, 0, 2), (3, 1, 3), (3, 2, 4)))
    val r = identityRanking(4)
    val s = ReferenceCHL.labelSet(g, r)
    // every vertex has the center as hub plus its self label, nothing else
    assert(s == Set((0, 0, 0L), (1, 1, 0L), (2, 2, 0L), (3, 3, 0L),
      (0, 3, 2L), (1, 3, 3L), (2, 3, 4L)))
  }

  test("disconnected components never share hubs") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1), (2, 3, 1)))
    val r = identityRanking(4)
    val s = ReferenceCHL.labelSet(g, r)
    assert(!s.exists { case (v, h, _) => (v < 2) != (h < 2) })
  }

  test("tie between shortest paths picks the highest-ranked hub") {
    // two equal-length 0→3 paths through 1 and through 2; rank(2)>rank(1)
    val g = CsrGraph.fromEdges(4, Seq((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
    val r = identityRanking(4)
    val s = ReferenceCHL.labelSet(g, r)
    assert(s.contains((0, 3, 2L)) && s.contains((3, 3, 0L)))
    // pair (0,3) is covered by hub 3 itself (max on the path), so no label
    // through 1 for that pair; (0,1) pair still yields hub 1
    assert(s.contains((0, 1, 1L)))
  }

  for (seed <- 1 to 10)
    test(s"reference CHL satisfies the cover property (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      TestUtil.assertCover(ReferenceCHL(g, r), g)
    }

  for (seed <- 1 to 10)
    test(s"reference CHL is minimal — removing any label breaks cover (seed=$seed)") {
      val g = TestGraphs.randomConnected(10 + seed, extra = 5, maxW = 5, seed = seed)
      val r = TestUtil.rankingFor(g, seed)
      val full = ReferenceCHL.labelSet(g, r)
      val l    = ReferenceCHL(g, r)
      // deleting any single label must change some query answer
      full.foreach { case (v, h, d) =>
        val reduced = fromTriples(r, full.filterNot(_ == ((v, h, d))))
        val changed = (0 until g.n).exists(u => reduced.query(v, u) != l.query(v, u))
        assert(changed, s"label ($v,$h,$d) is redundant in the reference CHL")
      }
    }
}
