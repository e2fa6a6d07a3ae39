package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Test-only graphs and references: small random graphs for the property
  * and differential suites, and an all-pairs distance oracle independent
  * of [[Dijkstra.sssp]]. All are pure functions of their parameters.
  */
object TestGraphs {
  import Dijkstra.Inf

  /** Small random sparse graph for property tests; may be disconnected.
    * Weights in `[1, maxW]`.
    */
  def randomSparse(n: Int, m: Int, maxW: Int, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val es  = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    var i = 0
    while (i < m) {
      val u = rnd.nextInt(n); val v = rnd.nextInt(n)
      if (u != v) es += ((u, v, 1 + rnd.nextInt(maxW)))
      i += 1
    }
    CsrGraph.fromEdges(n, es.toSeq)
  }

  /** Random connected graph: a random spanning tree plus `extra` random
    * edges. Used where tests want every pair reachable.
    */
  def randomConnected(n: Int, extra: Int, maxW: Int, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val es  = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    val perm = rnd.shuffle((0 until n).toVector)
    var i = 1
    while (i < n) {
      es += ((perm(i), perm(rnd.nextInt(i)), 1 + rnd.nextInt(maxW)))
      i += 1
    }
    var j = 0
    while (j < extra) {
      val u = rnd.nextInt(n); val v = rnd.nextInt(n)
      if (u != v) es += ((u, v, 1 + rnd.nextInt(maxW)))
      j += 1
    }
    CsrGraph.fromEdges(n, es.toSeq)
  }

  /** All-pairs distances via Floyd–Warshall — an implementation independent
    * from the heap code of [[Dijkstra.sssp]], so the two can cross-check
    * each other.
    */
  def floydWarshall(g: CsrGraph): Array[Array[Long]] = {
    val n = g.n
    val d = Array.fill(n, n)(Inf)
    var v = 0
    while (v < n) {
      d(v)(v) = 0
      var e = g.offsets(v)
      while (e < g.offsets(v + 1)) {
        val u = g.nbrs(e)
        if (g.wts(e) < d(v)(u)) d(v)(u) = g.wts(e)
        e += 1
      }
      v += 1
    }
    var k = 0
    while (k < n) {
      var i = 0
      while (i < n) {
        val dik = d(i)(k)
        if (dik < Inf) {
          var j = 0
          while (j < n) {
            val nd = dik + d(k)(j)
            if (nd < d(i)(j)) d(i)(j) = nd
            j += 1
          }
        }
        i += 1
      }
      k += 1
    }
    d
  }
}
