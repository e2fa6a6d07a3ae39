package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * These stand in for the paper's 12 real datasets (DESIGN.md §3): 2-D grids
  * emulate high-diameter road networks, preferential attachment emulates
  * scale-free networks, Erdős–Rényi gives a dense poorly-labelable graph
  * (POK analog). The tests' small random graphs are in `TestGraphs`.
  *
  * All generators are pure functions of their parameters and seed.
  */
object GraphGen {

  /** Uniform integer weight in `[1, max(2, ceil(sqrt(n))))` — the paper's
    * weight assignment for unweighted sources (§7.1.1).
    */
  def paperWeight(rnd: Random, n: Int): Int = {
    val hi = math.max(2, math.ceil(math.sqrt(n.toDouble)).toInt)
    1 + rnd.nextInt(hi - 1)
  }

  /** `rows x cols` 2-D grid (4-neighborhood) with paper-style random
    * weights: a road-network analog (high diameter, low tree-width).
    */
  def grid(rows: Int, cols: Int, seed: Long = 7): CsrGraph = {
    val n   = rows * cols
    val rnd = new Random(seed)
    val es  = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) {
        val v = r * cols + c
        if (c + 1 < cols) es += ((v, v + 1, paperWeight(rnd, n)))
        if (r + 1 < rows) es += ((v, v + cols, paperWeight(rnd, n)))
        c += 1
      }
      r += 1
    }
    CsrGraph.fromEdges(n, es)
  }

  /** Barabási–Albert preferential attachment: each new vertex attaches to
    * `attach` distinct existing vertices chosen ∝ degree. Connected,
    * scale-free degree distribution.
    */
  def preferentialAttachment(n: Int, attach: Int, seed: Long = 11): CsrGraph = {
    require(n > attach && attach >= 1, s"need n > attach >= 1, got n=$n attach=$attach")
    val rnd = new Random(seed)
    // endpoint multiset: each edge contributes both endpoints, so sampling
    // uniformly from it is degree-proportional sampling.
    val endpoints = mutable.ArrayBuffer.empty[Int]
    val es        = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    // seed clique over the first attach+1 vertices
    for (i <- 0 to attach; j <- (i + 1) to attach) {
      es += ((i, j, paperWeight(rnd, n))); endpoints += i; endpoints += j
    }
    var v = attach + 1
    while (v < n) {
      val chosen = mutable.Set.empty[Int]
      var tries  = 0
      while (chosen.size < attach && tries < 20 * attach) {
        val c = endpoints(rnd.nextInt(endpoints.size))
        if (c != v) chosen += c
        tries += 1
      }
      // fall back to uniform choice if the multiset keeps repeating
      while (chosen.size < attach) {
        val c = rnd.nextInt(v)
        if (c != v) chosen += c
      }
      chosen.foreach { u =>
        es += ((v, u, paperWeight(rnd, n))); endpoints += v; endpoints += u
      }
      v += 1
    }
    CsrGraph.fromEdges(n, es)
  }

  /** Erdős–Rényi G(n, m) with `m ≈ n*avgDeg/2` distinct edges. */
  def erdosRenyi(n: Int, avgDeg: Double, seed: Long = 13): CsrGraph = {
    val rnd    = new Random(seed)
    val target = math.max(1L, (n * avgDeg / 2).toLong)
    val seen   = mutable.Set.empty[Long]
    val es     = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    while (es.size < target) {
      val u = rnd.nextInt(n); val v = rnd.nextInt(n)
      if (u != v) {
        val key = math.min(u, v).toLong * n + math.max(u, v)
        if (!seen.contains(key)) {
          seen += key
          es += ((u, v, paperWeight(rnd, n)))
        }
      }
    }
    CsrGraph.fromEdges(n, es)
  }
}
