package repro.core

import repro.graph.{CsrGraph, Ranking}

/** Sequential Pruned Landmark Labeling (Akiba et al.), with rank queries —
  * the paper's seqPLL baseline. Processes roots strictly in rank order, so
  * its output is exactly the Canonical Hub Labeling for `(G, R)`.
  */
object SeqPLL {

  final case class Result(labeling: Labeling, timeMs: Long, explored: Long)

  def run(g: CsrGraph, rank: Ranking): Result = {
    require(rank.n == g.n, s"ranking of ${rank.n} vertices for a graph of ${g.n}")
    val t0      = System.nanoTime()
    val buffers = new LabelBuffers(g.n, threadSafe = false)
    val tables  = Array(buffers)
    val scratch = new DijkstraScratch(g.n)
    var explored = 0L
    var p = 0
    while (p < g.n) {
      val pos = p
      explored += PrunedDijkstra.buildTree(
        g, rank, rank.order(pos), tables, rankQueries = true, scratch,
        sink = (v, d) => buffers.add(v, pos, d))
      p += 1
    }
    // roots ran in rank order, so every list already ascends
    Result(buffers.toLabeling(rank), (System.nanoTime() - t0) / 1000000, explored)
  }
}
