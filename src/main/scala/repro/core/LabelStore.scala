package repro.core

import repro.graph.Ranking

/** Growable per-vertex label lists: the one table layout every distance
  * query reads — GLL's global and local tables, a DGLL node's exchanged,
  * own and superstep-local labels, and the Common Label Table. Vertices
  * index the lists; each label names its hub by rank position, so "`w`
  * outranks `h`" is `w < h`.
  *
  * When `threadSafe` the per-vertex buffer object is its own lock — LCC and
  * paraPLL lock only the vertex being read/appended (the paper's point that
  * dynamic label arrays must be locked). Tables written only between
  * barriers (GLL's global table, DGLL's broadcast ones) are read lock-free.
  */
final class LabelBuffers(val n: Int, val threadSafe: Boolean) extends Serializable {

  final class Buf extends Serializable {
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

  /** Copy `L_root` entries into the scratch's root snapshot, which is
    * indexed by hub position.
    */
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

  /** A copy as a [[Labeling]]. Lists that rank-ordered root loops filled
    * (SeqPLL, GLL's commit) already ascend and are copied as they are; any
    * other list is sorted by hub position on the way.
    */
  def toLabeling(rank: Ranking): Labeling = {
    val total = labelCount
    require(total <= Int.MaxValue, s"$total labels: a Labeling holds at most ${Int.MaxValue}")
    val offsets = new Array[Int](n + 1)
    val hubPos  = new Array[Int](total.toInt)
    val pages   = Labeling.distPages(total.toInt)
    var v = 0
    while (v < n) {
      val b = bufs(v); val lo = offsets(v)
      offsets(v + 1) = lo + b.size
      var i = 1
      while (i < b.size && b.hubs(i - 1) < b.hubs(i)) i += 1
      // an unsorted list is read in key order: hub position in the high 32
      // bits of a key, list index in the low 32
      val keys =
        if (i >= b.size) null
        else { val ks = Array.tabulate(b.size)(k => (b.hubs(k).toLong << 32) | k); java.util.Arrays.sort(ks); ks }
      i = 0
      while (i < b.size) {
        val k = if (keys == null) i else keys(i).toInt
        val j = lo + i
        hubPos(j) = b.hubs(k)
        pages(j >>> Labeling.PageBits)(j & Labeling.PageMask) = b.dists(k)
        i += 1
      }
      v += 1
    }
    new Labeling(rank, offsets, hubPos, pages)
  }
}

/** The redundancy check of Alg. 2 (`DQ_Clean`): a label `(h, delta) ∈ L_v`
  * is redundant iff a common hub `w` of `v` and `h` satisfies
  * `d(w,v)+d(w,h) <= delta` with `w` outranking `h` — hubs being rank
  * positions, `w < h`.
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
    * snapshot of `L_h`.
    */
  def isRedundant(
      h: Int,
      delta: Long,
      rootDist: Array[Long],
      hubsV: Array[Int], distsV: Array[Long], lenV: Int,
  ): Boolean = {
    var i = 0
    while (i < lenV) {
      val w = hubsV(i)
      if (w < h && rootDist(w) >= 0 && distsV(i) + rootDist(w) <= delta) return true
      i += 1
    }
    false
  }
}
