package repro.core

import repro.graph.{CsrGraph, Dijkstra, Ranking}

/** PLaNTDijkstra (Alg. 3) written the plain way, as the oracle for
  * `repro.dist.PlantTree`: a binary heap (`java.util.PriorityQueue`) of the
  * same packed `(dist, vertex)` keys, ancestors kept as vertex ids and
  * compared through `rank`, and a settled flag per vertex. It must settle
  * the same vertices in the same order, stop at the same pop and call
  * `sink` with the same `(v, d)` sequence.
  */
object ReferencePlant {

  /** Returns the number of vertices settled; `hc` as in `PlantTree.build`. */
  def build(g: CsrGraph, rank: Ranking, root: Int, hc: LabelBuffers, sink: (Int, Long) => Unit): Long = {
    val dist    = Array.fill(g.n)(Dijkstra.Inf)
    val anc     = new Array[Int](g.n)
    val settled = new Array[Boolean](g.n)
    val heap    = new java.util.PriorityQueue[java.lang.Long]()
    val snapshot = new DijkstraScratch(g.n)
    if (hc != null) hc.appendRootSnapshot(root, snapshot)
    def push(d: Long, v: Int): Unit = heap.add((d << 21) | v)

    dist(root) = 0
    anc(root) = root
    push(0, root)
    var cnt      = 1 // unsettled reached vertices whose ancestor is the root
    var explored = 0L
    while (!heap.isEmpty && cnt > 0) {
      val key = heap.poll().longValue
      val d = key >>> 21; val v = (key & ((1 << 21) - 1)).toInt
      if (d == dist(v) && !settled(v)) {
        settled(v) = true
        explored += 1
        if (anc(v) == root) cnt -= 1
        if (hc == null || v == root || !hc.covered(v, snapshot.rootDist, d)) {
          val nA = if (rank(anc(v)) >= rank(v)) anc(v) else v
          if (rank(nA) <= rank(root)) sink(v, d)
          for (e <- g.offsets(v) until g.offsets(v + 1)) {
            val u = g.nbrs(e); val nd = d + g.wts(e)
            if (!settled(u)) {
              val better = nd < dist(u)
              if (better || (nd == dist(u) && rank(nA) > rank(anc(u)))) {
                val pA = if (dist(u) == Dijkstra.Inf) -1 else anc(u)
                if (pA == root && nA != root) cnt -= 1
                else if (pA != root && nA == root) cnt += 1
                anc(u) = nA
                if (better) { dist(u) = nd; push(nd, u) }
              }
            }
          }
        }
      }
    }
    explored
  }
}
