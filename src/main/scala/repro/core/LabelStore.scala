package repro.core

import scala.collection.mutable
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

  /** Copy `L_root` entries into the hub→dist snapshot map. */
  def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit = {
    val b = bufs(root)
    def copy(): Unit = {
      var i = 0
      while (i < b.size) { into(b.hubs(i).toLong) = b.dists(i); i += 1 }
    }
    if (threadSafe) b.synchronized(copy()) else copy()
  }

  /** Distance query against this table: true iff some hub of `v` also in
    * `rootMap` gives a path `<= delta`.
    */
  def covered(v: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean = {
    val b = bufs(v)
    def scan(): Boolean = {
      var i = 0
      while (i < b.size) {
        val d2 = rootMap.getOrElse(b.hubs(i).toLong, -1L)
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
  /** Add all of `L_root` from this view into the snapshot map. */
  def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit
  /** True iff the view proves `SP(root, v) <= delta` is already covered. */
  def covered(v: Int, root: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean
}

object LabelView {
  final class OfBuffers(b: LabelBuffers) extends LabelView {
    def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit = b.appendRootSnapshot(root, into)
    def covered(v: Int, root: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean =
      b.covered(v, rootMap, delta)
  }

  final class OfLabeling(l: Labeling) extends LabelView {
    def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit = {
      val hs = l.hubs(root); val ds = l.dists(root)
      var i = 0
      while (i < hs.length) { into(hs(i).toLong) = ds(i); i += 1 }
    }
    def covered(v: Int, root: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean = {
      val hs = l.hubs(v); val ds = l.dists(v)
      var i = 0
      while (i < hs.length) {
        val d2 = rootMap.getOrElse(hs(i).toLong, -1L)
        if (d2 >= 0 && ds(i) + d2 <= delta) return true
        i += 1
      }
      false
    }
  }

  final class Composite(views: Seq[LabelView]) extends LabelView {
    def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit =
      views.foreach(_.appendRootSnapshot(root, into))
    def covered(v: Int, root: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean =
      views.exists(_.covered(v, root, rootMap, delta))
  }

  val Empty: LabelView = new LabelView {
    def appendRootSnapshot(root: Int, into: mutable.LongMap[Long]): Unit = ()
    def covered(v: Int, root: Int, rootMap: mutable.LongMap[Long], delta: Long): Boolean = false
  }
}

/** The redundancy check of Alg. 2 (`DQ_Clean`): a label `(h, delta) ∈ L_v`
  * is redundant iff a common hub `w` of `v` and `h` satisfies
  * `d(w,v)+d(w,h) <= delta` with `R(w) > R(h)`.
  *
  * Both label lists must be sorted by rank descending; the merge stops at
  * the first common hub meeting the distance condition (footnote 3: it is
  * also the highest-ranked witness — `h` itself always qualifies via its
  * self-label, terminating the scan with "not redundant").
  */
object Cleaning {
  /** Checks the first `lenV` / `lenH` entries of each list, so growable
    * buffers are checked in place.
    */
  def isRedundant(
      rank: Ranking,
      h: Int,
      delta: Long,
      hubsV: Array[Int], distsV: Array[Long], lenV: Int,
      hubsH: Array[Int], distsH: Array[Long], lenH: Int,
  ): Boolean = {
    val rh = rank(h)
    var i = 0; var j = 0
    while (i < lenV && j < lenH) {
      val ri = rank(hubsV(i)); val rj = rank(hubsH(j))
      if (ri == rj) {
        if (distsV(i) + distsH(j) <= delta) return ri > rh
        i += 1; j += 1
      } else if (ri > rj) i += 1
      else j += 1
    }
    false
  }
}
