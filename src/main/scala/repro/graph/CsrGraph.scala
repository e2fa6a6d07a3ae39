package repro.graph

/** Weighted graph in compressed-sparse-row form.
  *
  * Vertices are `0 until n`. For undirected graphs every edge is stored in
  * both directions, so `nbrs.length == 2*m`. Weights are positive integers
  * (the paper assigns uniform integer weights in `[1, sqrt(n))` to its
  * unweighted sources); distances are accumulated in `Long`.
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

  /** Maximum edge weight, 0 for an edgeless graph. */
  val maxWeight: Int = {
    var m = 0; var i = 0
    while (i < wts.length) { if (wts(i) > m) m = wts(i); i += 1 }
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
    edges.foreach { case (u, v, w) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range for n=$n")
      require(w > 0, s"edge weight must be positive, got $w on ($u,$v)")
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
