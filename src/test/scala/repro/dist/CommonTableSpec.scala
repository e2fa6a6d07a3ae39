package repro.dist

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DijkstraScratch, LabelBuffers}
import repro.graph.{GraphGen, Ranking}
import repro.TestUtil._

/** The Common Label Table: a [[LabelBuffers]] of the top-η hubs' labels,
  * queried through a dense `L_root` snapshot as [[PlantTree]] and DGLL do.
  */
class CommonTableSpec extends AnyFunSuite {

  private val rank = identityRanking(6) // order = 5,4,3,2,1,0; pos(5)=0

  /** A table of `(v, h, d)` labels, hub `h` given as a vertex. */
  private def table(ts: (Int, Int, Long)*): LabelBuffers = {
    val t = new LabelBuffers(6, threadSafe = false)
    ts.foreach { case (v, h, d) => t.add(v, rank.posOf(h), d) }
    t
  }

  private def covered(t: LabelBuffers, v: Int, root: Int, delta: Long): Boolean = {
    val scratch = new DijkstraScratch(t.n)
    t.appendRootSnapshot(root, scratch)
    t.covered(v, scratch.rootDist, delta)
  }

  test("empty table covers nothing") {
    val hc = table()
    assert(!covered(hc, 0, 1, 100))
    assert(hc.labelCount == 0)
  }

  test("covered requires both endpoints labelled and the sum within delta") {
    // top hub is vertex 5 (pos 0)
    val hc = table((0, 5, 3), (1, 5, 4))
    assert(covered(hc, 0, 1, 7))
    assert(covered(hc, 0, 1, 8))
    assert(!covered(hc, 0, 1, 6))
    assert(!covered(hc, 0, 2, 100)) // root 2 unlabelled
    assert(!covered(hc, 2, 1, 100)) // vertex 2 unlabelled
  }

  test("only hubs strictly above the root may prune") {
    val hc = table((0, 5, 1), (4, 5, 1), (1, 4, 1), (0, 4, 1))
    // root 5 is the top hub itself: nothing outranks it
    assert(!covered(hc, 0, 5, 100))
    // root 4: hub 5 (pos 0 < pos(4)=1) may prune
    assert(covered(hc, 0, 4, 2))
    // root 0: hub 4 labels both 1 and 0, so SP(0,1) is covered
    assert(covered(hc, 1, 0, 100))
    assert(!covered(hc, 1, 0, 1)) // but not within delta=1

    // Built as Hybrid builds it, from the planted trees of the top-eta
    // roots, the table gives every later root only hubs that outrank it.
    val g = GraphGen.preferentialAttachment(60, 3, seed = 48)
    val r = Ranking.byDegree(g)
    val eta = 8
    val planted = new LabelBuffers(g.n, threadSafe = false)
    val scratch = new DijkstraScratch(g.n)
    for (p <- 0 until eta)
      PlantTree.build(g, r, r.order(p), null, scratch, sink = (v, d) => planted.add(v, p, d))
    assert(planted.labelCount > 0)
    for (p <- eta until g.n) {
      val root = r.order(p)
      scratch.reset()
      planted.appendRootSnapshot(root, scratch)
      val len = scratch.sortSnapped()
      assert(len == planted.bufs(root).size, s"root $root")
      for (h <- scratch.snapped.take(len))
        assert(h < p, s"hub ${r.order(h)} (position $h) in the snapshot of root $root")
    }
  }

  test("labelCount counts stored labels") {
    val hc = table((0, 5, 1), (1, 5, 2), (2, 3, 3))
    assert(hc.labelCount == 3)
  }
}
