package repro.core

import scala.collection.mutable
import repro.graph.Ranking

/** Growable per-vertex label lists: the one table layout every distance
  * query reads — GLL's global and local tables, a DGLL node's exchanged
  * and own labels, and the Common Label Table. Vertices index the lists;
  * each label names its hub by rank position, so "`w` outranks `h`" is
  * `w < h`, and every producer fills each list in rank order.
  *
  * When `threadSafe` the per-vertex buffer object is its own lock — GLL's
  * local table locks only the vertex being read/appended (the paper's point
  * that dynamic label arrays must be locked). Tables written only between
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
    * the root snapshot `rootDist` gives a path `<= delta`. A hub the root
    * lacks reads `Dijkstra.Inf` there, so its sum never meets `delta`.
    */
  def covered(v: Int, rootDist: Array[Long], delta: Long): Boolean = {
    val b = bufs(v)
    def scan(): Boolean = {
      var i = 0
      while (i < b.size) {
        if (b.dists(i) + rootDist(b.hubs(i)) <= delta) return true
        i += 1
      }
      false
    }
    if (threadSafe) b.synchronized(scan()) else scan()
  }

  /** Empties every list, keeping its arrays for the next fill. */
  def clear(): Unit = bufs.foreach(_.size = 0)

  def labelCount: Long = {
    var s = 0L; var v = 0
    while (v < n) { s += bufs(v).size; v += 1 }
    s
  }

  /** A copy as a [[Labeling]]. Rank-ordered producers (SeqPLL's root
    * loop, each commit of GLL and DGLL, the dist layer's merge by root) fill
    * every list in ascending hub order; a list that does not ascend is a
    * commit-order bug and is rejected, naming its vertex.
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
      var i = 0
      while (i < b.size) {
        if (i > 0 && b.hubs(i - 1) >= b.hubs(i)) throw new IllegalArgumentException(
          s"vertex $v: hub position ${b.hubs(i)} follows ${b.hubs(i - 1)}, but each list must ascend")
        val j = lo + i
        hubPos(j) = b.hubs(i)
        pages(j >>> Labeling.PageBits)(j & Labeling.PageMask) = b.dists(i)
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
  * Both kernels clean vertex by vertex: `L_v` is copied once into a dense
  * snapshot (`DijkstraScratch.rootDist`), and each label's `L_h` is
  * scanned against it — GLL's [[commitVertex]] over its local table,
  * DGLL's [[markVertex]] over a node's witnesses. The rank-ordered merge
  * this replaces answers "redundant" iff the highest-ranked common hub
  * meeting the distance condition outranks `h`; that holds iff *any* such
  * hub outranks `h`, so neither list needs to be sorted and the scan order
  * does not matter. `h` itself (its self-label is in `L_h`) meets the
  * condition but never outranks itself.
  */
object Cleaning {
  /** True iff a witness for `(h, delta)` lies among the first `lenH`
    * entries of `(hubsH, distsH)`, a part of `L_h`, given `rootDist`, the
    * snapshot of `L_v`. A hub `v` lacks reads `Dijkstra.Inf` there, so it is
    * never a witness.
    */
  def isRedundant(
      h: Int,
      delta: Long,
      rootDist: Array[Long],
      hubsH: Array[Int], distsH: Array[Long], lenH: Int,
  ): Boolean = {
    var i = 0
    while (i < lenH) {
      val w = hubsH(i)
      if (w < h && distsH(i) + rootDist(w) <= delta) return true
      i += 1
    }
    false
  }

  /** GLL's vertex-by-vertex cleaning and commit of a superstep. Snapshots
    * `local(v)` into `scratch` once, tests each of its labels `(h, delta)`
    * against `local(rank.order(h))` (skipped unless `clean`), and appends
    * the survivors to `global(v)` in ascending hub order, whatever the
    * order of `local(v)`. `local` is only read. Returns the count of
    * redundant labels.
    */
  def commitVertex(v: Int, local: LabelBuffers, global: LabelBuffers, rank: Ranking,
                   scratch: DijkstraScratch, clean: Boolean): Int = {
    scratch.reset()
    local.appendRootSnapshot(v, scratch)
    val hubs = scratch.snapped
    val len  = scratch.sortSnapped()
    var removed = 0
    var i = 0
    while (i < len) {
      val h = hubs(i); val delta = scratch.rootDist(h)
      val b = local.bufs(rank.order(h))
      if (clean && isRedundant(h, delta, scratch.rootDist, b.hubs, b.dists, b.size)) removed += 1
      else global.add(v, h, delta)
      i += 1
    }
    removed
  }

  /** DGLL's vertex-by-vertex cleaning of a superstep's candidates `cand`.
    * Snapshots `witnesses(v)` into `scratch` once, tests each candidate
    * `(h, delta)` of `v` against `witnesses(rank.order(h))`, and adds the
    * CSR index of each redundant one to `marked`. A vertex without
    * candidates takes no snapshot.
    */
  def markVertex(v: Int, cand: Labeling, witnesses: LabelBuffers, scratch: DijkstraScratch,
                 marked: mutable.ArrayBuilder.ofInt): Unit = {
    var k = cand.offsets(v); val end = cand.offsets(v + 1)
    if (k == end) return
    scratch.reset()
    witnesses.appendRootSnapshot(v, scratch)
    while (k < end) {
      val h = cand.hubPos(k)
      val b = witnesses.bufs(cand.rank.order(h))
      if (isRedundant(h, cand.hubDist(k), scratch.rootDist, b.hubs, b.dists, b.size)) marked += k
      k += 1
    }
  }
}
