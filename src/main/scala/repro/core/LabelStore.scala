package repro.core

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

  /** Empties every list, keeping its arrays for the next fill. */
  def clear(): Unit = bufs.foreach(_.size = 0)

  def labelCount: Long = {
    var s = 0L; var v = 0
    while (v < n) { s += bufs(v).size; v += 1 }
    s
  }

  /** Appends the labels of `blocks`, merged by root: root by root in
    * ascending rank position, the root's run from whichever block holds it.
    * Labels that `marks` marks (`marks(k)(i)` for label `i` of block `k`;
    * null: none) are skipped. Returns the count of marked labels skipped.
    * Appending a superstep whose roots all rank below every hub already
    * here keeps each list sorted by hub position.
    */
  def appendRuns(blocks: Array[NodeLabels], marks: Array[Array[Boolean]]): Long = {
    val at = new Array[Int](blocks.length) // each block's next run
    var skipped = 0L
    var k = 0
    while (k >= 0) {
      k = -1 // the block whose next run has the lowest root h, if any is left
      var h = Int.MaxValue
      var j = 0
      while (j < blocks.length) {
        if (at(j) < blocks(j).size && blocks(j).h(at(j)) < h) { k = j; h = blocks(j).h(at(j)) }
        j += 1
      }
      if (k >= 0) {
        val b = blocks(k); val m = if (marks == null) null else marks(k)
        var i = at(k)
        while (i < b.size && b.h(i) == h) {
          if (m != null && m(i)) skipped += 1
          else add(b.v(i), h, b.d(i))
          i += 1
        }
        at(k) = i
      }
    }
    skipped
  }

  /** A copy as a [[Labeling]]. Rank-ordered root loops (SeqPLL, each
    * [[appendRuns]], each [[Cleaning.commitVertex]]) fill every list in
    * ascending hub order; a list that does not ascend is a commit-order bug
    * and is rejected, naming its vertex.
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

/** The labels of a set of trees, as parallel columns: label `i` says vertex
  * `v(i)` is at distance `d(i)` from the hub at rank position `h(i)`.
  *
  * The dist layer's record of a node's trees: a block holds one contiguous
  * run of labels per root, roots ascending — the candidates a DGLL node
  * generated in a superstep, or a node's planted batches concatenated in
  * batch order. [[Cleaning.markRun]] marks a run and
  * [[LabelBuffers.appendRuns]] merges blocks run by run.
  */
final class NodeLabels(val v: Array[Int], val h: Array[Int], val d: Array[Long]) extends Serializable {
  def size: Int = v.length

  /** The labels `i` for which `keep(i)` holds, in column order. */
  def select(keep: Int => Boolean): NodeLabels = {
    val b = new NodeLabels.Builder
    var i = 0
    while (i < size) { if (keep(i)) b.add(v(i), h(i), d(i)); i += 1 }
    b.result()
  }

  /** Per-vertex lists of this block's labels over `n` vertices. */
  def index(n: Int): LabelBuffers = {
    val t = new LabelBuffers(n, threadSafe = false)
    t.appendRuns(Array(this), null)
    t
  }
}

object NodeLabels {
  /** All labels of `blocks`, in order. */
  def concat(blocks: Seq[NodeLabels]): NodeLabels =
    new NodeLabels(Array.concat(blocks.map(_.v): _*), Array.concat(blocks.map(_.h): _*),
      Array.concat(blocks.map(_.d): _*))

  /** Growable columns for a tree sink. */
  final class Builder {
    private var v = new Array[Int](16)
    private var h = new Array[Int](16)
    private var d = new Array[Long](16)
    private var len = 0

    def size: Int = len

    def add(vv: Int, hh: Int, dd: Long): Unit = {
      if (len == v.length) {
        v = java.util.Arrays.copyOf(v, len * 2)
        h = java.util.Arrays.copyOf(h, len * 2)
        d = java.util.Arrays.copyOf(d, len * 2)
      }
      v(len) = vv; h(len) = hh; d(len) = dd; len += 1
    }

    def result(): NodeLabels =
      new NodeLabels(java.util.Arrays.copyOf(v, len), java.util.Arrays.copyOf(h, len),
        java.util.Arrays.copyOf(d, len))
  }
}

/** The redundancy check of Alg. 2 (`DQ_Clean`): a label `(h, delta) ∈ L_v`
  * is redundant iff a common hub `w` of `v` and `h` satisfies
  * `d(w,v)+d(w,h) <= delta` with `w` outranking `h` — hubs being rank
  * positions, `w < h`.
  *
  * One list is copied once into a dense snapshot
  * (`DijkstraScratch.rootDist`) and the other is scanned: GLL cleans vertex
  * by vertex, snapshotting `L_v` and scanning each `L_h`
  * ([[commitVertex]]); DGLL cleans tree by tree, snapshotting `L_h` and
  * scanning each `L_v` ([[markRun]]). The condition is symmetric in the two
  * lists. The rank-ordered merge this replaces answers "redundant" iff the
  * highest-ranked common hub meeting the distance condition outranks `h`;
  * that holds iff *any* such hub outranks `h`, so neither list needs to be
  * sorted and the scan order does not matter. `h` itself (its self-label
  * is in the snapshot) meets the condition but never outranks itself.
  */
object Cleaning {
  /** True iff a witness for `(h, delta)` lies among the first `lenV`
    * entries of `(hubsV, distsV)`, a part of one of the two lists, given
    * `rootDist`, the snapshot of the other.
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

  /** DGLL's tree-by-tree cleaning of a candidate block. Marks the
    * redundant labels of root `h`'s run in `block`, the labels from index
    * `from` on whose hub is `h`, setting `marks(i)` for each label `i` of
    * the run: the root's list `witnesses(rank.order(h))` is snapshotted into
    * `scratch` once, then each label `(v, delta)` scans `witnesses(v)`.
    * Returns the run's end, `from` when `block` holds no run of `h` there.
    */
  def markRun(block: NodeLabels, from: Int, h: Int, witnesses: LabelBuffers, rank: Ranking,
              scratch: DijkstraScratch, marks: Array[Boolean]): Int = {
    scratch.reset()
    witnesses.appendRootSnapshot(rank.order(h), scratch)
    var i = from
    while (i < block.size && block.h(i) == h) {
      val b = witnesses.bufs(block.v(i))
      marks(i) = isRedundant(h, block.d(i), scratch.rootDist, b.hubs, b.dists, b.size)
      i += 1
    }
    i
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
}
