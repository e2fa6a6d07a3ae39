package repro.graph

/** Weighted graph in compressed-sparse-row form.
  *
  * Vertices are `0 until n`. For undirected graphs every edge is stored in
  * both directions, so `nbrs.length == 2*m`. Weights are positive integers,
  * checked at construction (the paper assigns uniform integer weights in
  * `[1, sqrt(n))` to its unweighted sources); distances are accumulated in
  * `Long`.
  *
  * @param n       number of vertices
  * @param offsets CSR row pointers, length `n+1`
  * @param nbrs    concatenated adjacency lists
  * @param wts     edge weights, parallel to `nbrs`
  */
final class CsrGraph(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wts: Array[Int],
) extends Serializable {
  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1 ${n + 1}")
  require(nbrs.length == wts.length, "nbrs/wts length mismatch")

  /** Number of directed arcs stored (2*m for an undirected graph). */
  def arcCount: Int = nbrs.length

  /** Undirected edge count (arcs are stored symmetrically). */
  def m: Long = nbrs.length / 2L

  /** Out-degree of `v`. */
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Maximum edge weight, 0 for an edgeless graph. The same scan checks
    * every arc: its head must be a vertex and its weight positive, since no
    * Dijkstra here keeps a settled flag (see `DijkstraScratch`): a settled
    * vertex must never be reached again at its own distance.
    */
  val maxWeight: Int = {
    var m = 0; var i = 0
    while (i < wts.length) {
      val w = wts(i); val u = nbrs(i)
      if (u < 0 || u >= n) throw new IllegalArgumentException(s"arc $i heads to $u, out of range for n=$n")
      if (w <= 0) throw new IllegalArgumentException(s"edge weight must be positive, got $w on arc $i to $u")
      if (w > m) m = w
      i += 1
    }
    m
  }

  /** An upper bound on any finite shortest-path distance. */
  def distanceBound: Long = maxWeight.toLong * n + 1

  // Every Dijkstra heap key is a vertex and a distance of at most
  // `maxWeight * (n-1)`, so these two checks keep every push in range.
  require(n <= LongMinHeap.MaxVertices,
    s"n=$n vertices exceeds the limit of ${LongMinHeap.MaxVertices} (2^21) of the Dijkstra heap")
  require(distanceBound < LongMinHeap.MaxDistance,
    s"distance bound $distanceBound (max weight $maxWeight x n=$n) reaches the limit " +
      s"${LongMinHeap.MaxDistance} (2^42) of the Dijkstra heap")
}

object CsrGraph {

  /** Build a CSR graph from `(src, dst, w)` triples.
    *
    * @param undirected when true each triple is inserted in both directions
    *                   (self-loops are dropped; parallel edges are kept —
    *                   Dijkstra handles them naturally)
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Int)], undirected: Boolean = true): CsrGraph = {
    val deg = new Array[Int](n)
    var cnt = 0
    edges.foreach { case (u, v, _) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range for n=$n")
      if (u != v) {
        deg(u) += 1; cnt += 1
        if (undirected) { deg(v) += 1; cnt += 1 }
      }
    }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val nbrs = new Array[Int](cnt)
    val wts  = new Array[Int](cnt)
    val fill = offsets.clone()
    edges.foreach { case (u, v, w) =>
      if (u != v) {
        nbrs(fill(u)) = v; wts(fill(u)) = w; fill(u) += 1
        if (undirected) { nbrs(fill(v)) = u; wts(fill(v)) = w; fill(v) += 1 }
      }
    }
    new CsrGraph(n, offsets, nbrs, wts)
  }
}
