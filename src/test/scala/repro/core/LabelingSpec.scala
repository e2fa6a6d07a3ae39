package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Dijkstra, Ranking}
import repro.TestUtil._

class LabelingSpec extends AnyFunSuite {

  private val rank = identityRanking(4) // rank(v) = v, so 3 outranks all

  private def mk(ts: (Int, Int, Long)*): Labeling = fromTriples(rank, ts)

  test("query over a single common hub") {
    val l = mk((0, 3, 5), (1, 3, 7))
    assert(l.query(0, 1) == 12)
  }

  test("query takes the minimum over several common hubs") {
    val l = mk((0, 3, 5), (1, 3, 7), (0, 2, 1), (1, 2, 2))
    assert(l.query(0, 1) == 3)
  }

  test("query returns Inf with no common hub") {
    val l = mk((0, 3, 5), (1, 2, 7))
    assert(l.query(0, 1) == Dijkstra.Inf)
  }

  test("self query through a self label is zero") {
    val l = mk((0, 0, 0), (0, 3, 5))
    assert(l.query(0, 0) == 0)
  }

  test("labels are sorted by hub rank descending") {
    val l = mk((0, 1, 9), (0, 3, 5), (0, 2, 7))
    assert(l.hubs(0).toSeq == Seq(3, 2, 1))
    assert(l.dists(0).toSeq == Seq(5L, 7L, 9L))
  }

  test("labelCount, als and storageBytes") {
    val l = mk((0, 0, 0), (1, 1, 0), (1, 0, 4))
    assert(l.labelCount == 3)
    assert(l.als == 3.0 / 4)
    assert(l.storageBytes == 36)
  }

  test("tripleSet round-trips through fromTriples") {
    val ts = Set((0, 3, 5L), (1, 3, 7L), (2, 2, 0L))
    val l  = mk(ts.toSeq: _*)
    assert(l.tripleSet == ts)
  }

  test("empty labeling answers Inf everywhere") {
    val l = fromTriples(rank, Nil)
    assert(l.labelCount == 0)
    assert(l.query(0, 1) == Dijkstra.Inf)
    assert(l.query(2, 2) == Dijkstra.Inf)
  }

  test("distances stay with their hubs across distance pages") {
    // 300 vertices × 150 labels: 45,000 labels fill two pages, and the run
    // of vertex 218 crosses from the first into the second
    val r = identityRanking(300)
    val store = new LabelBuffers(300, threadSafe = false)
    for (v <- 0 until 300; p <- 0 until 150) store.add(v, p, 1000L * v + p)
    val l = store.toLabeling(r)
    assert(l.labelCount == 45000)
    for (v <- 0 until 300) assert(l.dists(v).toSeq == (0 until 150).map(1000L * v + _), s"vertex $v")
    assert(l.query(218, 219) == 1000L * 218 + 1000L * 219)
  }

  test("query is symmetric") {
    val l = mk((0, 3, 5), (1, 3, 7), (0, 2, 2), (1, 2, 4))
    assert(l.query(0, 1) == l.query(1, 0))
  }

  /** The dense snapshot of `L_h` the cleaning kernel reads, hubs given as
    * vertices of `r` and stored by rank position.
    */
  private def snapshot(r: Ranking, hubs: Array[Int], dists: Array[Long]): Array[Long] = {
    val scratch = new DijkstraScratch(r.n)
    hubs.indices.foreach(i => scratch.snap(r.posOf(hubs(i)), dists(i)))
    scratch.rootDist
  }

  /** `Cleaning.isRedundant` for label `(h, delta)` of `v`, hubs given as
    * vertices of `r`.
    */
  private def redundant(r: Ranking, h: Int, delta: Long, rootDist: Array[Long],
                        lv: (Array[Int], Array[Long])): Boolean =
    Cleaning.isRedundant(r.posOf(h), delta, rootDist, lv._1.map(r.posOf), lv._2, lv._1.length)

  test("Cleaning.isRedundant: higher-ranked witness on the path") {
    // L_v = {(1,4),(3,2)} in any order, L_1 = {(3,2),(1,0)}; label (1,4)
    // of v: witness hub 3 with 2+2 <= 4 and rank(3) > rank(1) → redundant
    val lv = (Array(1, 3), Array(4L, 2L))
    val rootDist = snapshot(rank, Array(3, 1), Array(2L, 0L))
    assert(redundant(rank, 1, 4L, rootDist, lv))
  }

  test("Cleaning.isRedundant: self-witness terminates as non-redundant") {
    val lv = (Array(3, 1), Array(9L, 4L)) // hub 3 too far: 9+2 > 4
    val rootDist = snapshot(rank, Array(3, 1), Array(2L, 0L))
    assert(!redundant(rank, 1, 4L, rootDist, lv))
  }

  test("Cleaning.isRedundant: witness must outrank the hub") {
    // common hub 0 meets the distance condition but ranks below hub 2
    val r3 = identityRanking(3)
    val lv = (Array(2, 0), Array(4L, 1L))
    val rootDist = snapshot(r3, Array(2, 0), Array(0L, 3L))
    assert(!redundant(r3, 2, 4L, rootDist, lv))
  }
}
