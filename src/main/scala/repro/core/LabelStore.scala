package repro.core

import repro.graph.Ranking

/** Growable per-vertex label lists used during construction.
  *
  * When `threadSafe` the per-vertex buffer object is its own lock — LCC and
  * paraPLL lock only the vertex being read/appended (the paper's point that
  * dynamic label arrays must be locked). GLL's *global* table is an
  * immutable [[Labeling]] read lock-free; only this local table locks.
  */
final class LabelBuffers(val n: Int, val threadSafe: Boolean) extends Serializable {

  final class Buf {
    var hubs: Array[Int]   = new Array[Int](4)
    var dists: Array[Long] = new Array[Long](4)
    var size: Int          = 0

    def add(h: Int, d: Long): Unit = {
      if (size == hubs.length) {
        hubs = java.util.Arrays.copyOf(hubs, size * 2)
        dists = java.util.Arrays.copyOf(dists, size * 2)
      }
      hubs(size) = h; dists(size) = d; size += 1
    }
  }

  val bufs: Array[Buf] = Array.fill(n)(new Buf)

  def add(v: Int, h: Int, d: Long): Unit =
    if (threadSafe) bufs(v).synchronized(bufs(v).add(h, d)) else bufs(v).add(h, d)

  /** Copy `L_root` entries into the scratch's root snapshot. */
  def appendRootSnapshot(root: Int, into: DijkstraScratch): Unit = {
    val b = bufs(root)
    def copy(): Unit = {
      var i = 0
      while (i < b.size) { into.snap(b.hubs(i), b.dists(i)); i += 1 }
    }
    if (threadSafe) b.synchronized(copy()) else copy()
  }

  /** Distance query against this table: true iff some hub of `v` also in
    * the root snapshot `rootDist` gives a path `<= delta`.
    */
  def covered(v: Int, rootDist: Array[Long], delta: Long): Boolean = {
    val b = bufs(v)
    def scan(): Boolean = {
      var i = 0
      while (i < b.size) {
        val d2 = rootDist(b.hubs(i))
        if (d2 >= 0 && b.dists(i) + d2 <= delta) return true
        i += 1
      }
      false
    }
    if (threadSafe) b.synchronized(scan()) else scan()
  }

  def labelCount: Long = {
    var s = 0L; var v = 0
    while (v < n) { s += bufs(v).size; v += 1 }
    s
  }

  /** A copy as a [[Labeling]]; every list must already be rank-descending,
    * as the rank-ordered root loops of SeqPLL and GLL's commit leave them.
    */
  def toLabeling(rank: Ranking): Labeling =
    new Labeling(n,
      Array.tabulate(n)(v => java.util.Arrays.copyOf(bufs(v).hubs, bufs(v).size)),
      Array.tabulate(n)(v => java.util.Arrays.copyOf(bufs(v).dists, bufs(v).size)),
      rank)

  def triples: Iterator[LabelTriple] =
    (0 until n).iterator.flatMap { v =>
      val b = bufs(v)
      (0 until b.size).iterator.map(i => LabelTriple(v, b.hubs(i), b.dists(i)))
    }
}

/** What a pruned-Dijkstra tree build can consult for distance queries —
  * composition of the tables visible to the executing thread/node.
  */
trait LabelView {
  /** Add all of `L_root` from this view to the scratch's root snapshot. */
  def appendRootSnapshot(root: Int, into: DijkstraScratch): Unit
  /** True iff the view proves `SP(root, v) <= delta` is already covered,
    * given the root snapshot `rootDist` (see [[DijkstraScratch]]).
    */
  def covered(v: Int, root: Int, rootDist: Array[Long], delta: Long): Boolean
}

object LabelView {
  final class OfBuffers(b: LabelBuffers) extends LabelView {
    def appendRootSnapshot(root: Int, into: DijkstraScratch): Unit = b.appendRootSnapshot(root, into)
    def covered(v: Int, root: Int, rootDist: Array[Long], delta: Long): Boolean =
      b.covered(v, rootDist, delta)
  }

  final class OfLabeling(l: Labeling) extends LabelView {
    def appendRootSnapshot(root: Int, into: DijkstraScratch): Unit = {
      val hs = l.hubs(root); val ds = l.dists(root)
      var i = 0
      while (i < hs.length) { into.snap(hs(i), ds(i)); i += 1 }
    }
    def covered(v: Int, root: Int, rootDist: Array[Long], delta: Long): Boolean = {
      val hs = l.hubs(v); val ds = l.dists(v)
      var i = 0
      while (i < hs.length) {
        val d2 = rootDist(hs(i))
        if (d2 >= 0 && ds(i) + d2 <= delta) return true
        i += 1
      }
      false
    }
  }

  final class Composite(views: Seq[LabelView]) extends LabelView {
    private val vs = views.toArray
    def appendRootSnapshot(root: Int, into: DijkstraScratch): Unit = {
      var i = 0
      while (i < vs.length) { vs(i).appendRootSnapshot(root, into); i += 1 }
    }
    def covered(v: Int, root: Int, rootDist: Array[Long], delta: Long): Boolean = {
      var i = 0
      while (i < vs.length) { if (vs(i).covered(v, root, rootDist, delta)) return true; i += 1 }
      false
    }
  }
}

/** The redundancy check of Alg. 2 (`DQ_Clean`): a label `(h, delta) ∈ L_v`
  * is redundant iff a common hub `w` of `v` and `h` satisfies
  * `d(w,v)+d(w,h) <= delta` with `R(w) > R(h)`.
  *
  * Cleaning runs tree by tree: `L_h` is copied once into a dense snapshot
  * (`DijkstraScratch.rootDist`) and every label of `h`'s tree scans its own
  * `L_v`. The rank-ordered merge this replaces answers "redundant" iff the
  * highest-ranked common hub meeting the distance condition outranks `h`;
  * that holds iff *any* such hub outranks `h`, so neither list needs to be
  * sorted and the scan order does not matter. `h` itself (its self-label
  * is in the snapshot) meets the condition but never outranks itself.
  */
object Cleaning {
  /** True iff a witness for `(h, delta)` lies among the first `lenV`
    * entries of `(hubsV, distsV)`, a part of `L_v`, given `rootDist`, the
    * snapshot of `L_h`. The rank check runs only on a hit.
    */
  def isRedundant(
      rank: Ranking,
      h: Int,
      delta: Long,
      rootDist: Array[Long],
      hubsV: Array[Int], distsV: Array[Long], lenV: Int,
  ): Boolean = {
    val rh = rank(h)
    var i = 0
    while (i < lenV) {
      val w = hubsV(i); val dw = rootDist(w)
      if (dw >= 0 && distsV(i) + dw <= delta && rank(w) > rh) return true
      i += 1
    }
    false
  }
}
