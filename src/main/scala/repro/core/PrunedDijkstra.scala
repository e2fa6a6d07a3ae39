package repro.core

import repro.graph.{CsrGraph, Dijkstra, LongMinHeap, Ranking}

/** Reusable per-thread scratch for repeated Dijkstra runs — footnote 2 of
  * the paper: initialization only touches elements modified by the previous
  * run.
  *
  * No run keeps a settled flag: weights are positive and a push strictly
  * lowers `dist(v)`, so exactly one heap entry of `v` has `d == dist(v)`,
  * and that test alone settles `v` once.
  *
  * It also holds the dense root snapshot both label-set queries read (as in
  * PLL): `rootDist(h)` is the root's distance to the hub at rank position
  * `h`, and [[Dijkstra.Inf]] where the root has no label for it, so a
  * reader tests an entry with one add and one compare: `d + rootDist(h)`
  * cannot overflow and exceeds every distance a graph admits.
  * [[reset]] clears only the entries set since the last reset, so a stale
  * entry never leaks into the next tree.
  */
final class DijkstraScratch(n: Int) {
  val dist: Array[Long] = Array.fill(n)(Dijkstra.Inf)
  val anc: Array[Int]   = new Array[Int](n)       // PLaNT: rank of v's highest-ranked ancestor
  val heap = new LongMinHeap(64)
  val rootDist: Array[Long] = Array.fill(n)(Dijkstra.Inf)
  // a vertex is touched (and a hub snapshotted) at most once per run
  private val touched = new Array[Int](n)
  private var nTouched = 0
  // the hubs snapped since the last reset, distinct, first nSnapped entries
  val snapped = new Array[Int](n)
  private var nSnapped = 0

  def touch(v: Int): Unit = { touched(nTouched) = v; nTouched += 1 }

  /** Records the root label `(h, d)` in the snapshot. */
  def snap(h: Int, d: Long): Unit = {
    if (rootDist(h) == Dijkstra.Inf) { snapped(nSnapped) = h; nSnapped += 1 }
    rootDist(h) = d
  }

  /** Sorts the hubs snapped since the last reset ascending, in place, and
    * returns their count: they are `snapped(0 until count)`.
    */
  def sortSnapped(): Int = { java.util.Arrays.sort(snapped, 0, nSnapped); nSnapped }

  def reset(): Unit = {
    var i = 0
    while (i < nTouched) {
      val v = touched(i)
      dist(v) = Dijkstra.Inf
      i += 1
    }
    nTouched = 0
    i = 0
    while (i < nSnapped) { rootDist(snapped(i)) = Dijkstra.Inf; i += 1 }
    nSnapped = 0
    heap.clear()
  }
}

/** Pruned Dijkstra with Rank Queries (Alg. 1) — the tree-construction
  * engine shared by seqPLL, SparaPLL, LCC, GLL and DGLL; they differ only
  * in which label tables they can consult and whether rank queries are on.
  */
object PrunedDijkstra {

  /** Build the pruned SPT rooted at `root`.
    *
    * @param tables      label tables consulted by distance queries; `L_root`
    *                    from every table is copied once up front into the
    *                    dense snapshot `scratch.rootDist` (`Dijkstra.Inf`
    *                    for a hub the root lacks), and `v` is covered iff
    *                    any table's `L_v` meets it within the distance: one
    *                    lookup, add and compare per label, like PLL's `L_h`
    *                    array
    * @param rankQueries prune (and withhold labels) at vertices ranked
    *                    above the root — LCC's crucial addition; paraPLL
    *                    runs with this off
    * @param sink        called with `(v, dist)` for every label generated
    * @return            number of vertices settled (explored)
    */
  def buildTree(
      g: CsrGraph,
      rank: Ranking,
      root: Int,
      tables: Array[LabelBuffers],
      rankQueries: Boolean,
      scratch: DijkstraScratch,
      sink: (Int, Long) => Unit,
  ): Long = {
    scratch.reset()
    val dist = scratch.dist
    val heap = scratch.heap
    val rootDist = scratch.rootDist
    var t = 0
    while (t < tables.length) { tables(t).appendRootSnapshot(root, scratch); t += 1 }

    dist(root) = 0
    scratch.touch(root)
    heap.push(0, root)
    var explored = 0L

    while (heap.nonEmpty) {
      val d = heap.topDist; val v = heap.topVertex; heap.pop()
      if (d == dist(v)) {
        explored += 1
        val rankPruned = rankQueries && rank(v) > rank(root)
        if (!rankPruned && !covered(tables, v, rootDist, d)) {
          sink(v, d)
          var e = g.offsets(v)
          while (e < g.offsets(v + 1)) {
            val u = g.nbrs(e); val nd = d + g.wts(e)
            if (nd < dist(u)) {
              if (dist(u) == Dijkstra.Inf) scratch.touch(u)
              dist(u) = nd
              heap.push(nd, u)
            }
            e += 1
          }
        }
      }
    }
    explored
  }

  private def covered(tables: Array[LabelBuffers], v: Int, rootDist: Array[Long], delta: Long): Boolean = {
    var t = 0
    while (t < tables.length) { if (tables(t).covered(v, rootDist, delta)) return true; t += 1 }
    false
  }
}
