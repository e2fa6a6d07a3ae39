package repro.dist

import repro.core.{DijkstraScratch, LabelBuffers}
import repro.graph.{CsrGraph, Dijkstra, Ranking}

/** PLaNTDijkstra (Alg. 3): "Prune Labels and (do) Not (prune) Trees".
  *
  * Instead of consulting previously generated labels, the tree rooted at
  * `h` propagates the highest-ranked strict ancestor `a[v]` on the shortest
  * path(s) from `h` to `v` (among multiple shortest paths, the one with the
  * highest-ranked ancestor wins). A label `(h, δ_v)` is emitted iff neither
  * `v` nor `a[v]` outranks `h` — exactly the canonical condition — so the
  * output is non-redundant with **zero** dependence on other trees' labels.
  *
  * The tree is *not* pruned (dominated vertices still relax their edges:
  * that is what keeps distances and ancestors exact), except for
  *  - *early termination*: stop when no vertex in the queue has `a[v] = h`
  *    (footnote 6 — every future label would be dominated), tracked by
  *    `cnt`, and
  *  - optional *Common-Label-Table pruning* (§5.3): with the complete label
  *    sets of the η top-ranked hubs on every node, a distance query against
  *    them may prune traversal without risking redundant or missed labels.
  */
object PlantTree {

  /** Build the planted SPT rooted at `root`; emits labels via `sink`.
    *
    * @param hc  common label table for §5.3 pruning, or `null`: labels of
    *            top hubs that all outrank `root`
    * @return    number of vertices settled (explored) — the numerator of Ψ
    */
  def build(
      g: CsrGraph,
      rank: Ranking,
      root: Int,
      hc: LabelBuffers,
      scratch: DijkstraScratch,
      sink: (Int, Long) => Unit,
  ): Long = {
    scratch.reset()
    val dist = scratch.dist
    val anc  = scratch.anc
    val heap = scratch.heap
    if (hc != null) hc.appendRootSnapshot(root, scratch)

    dist(root) = 0
    anc(root) = root
    scratch.touch(root)
    heap.push(0, root)
    var cnt      = 1 // unsettled reached vertices whose ancestor is the root
    var explored = 0L

    while (heap.nonEmpty && cnt > 0) {
      val d = heap.topDist; val v = heap.topVertex; heap.pop()
      if (d == dist(v) && !scratch.settled(v)) {
        scratch.settled(v) = true
        explored += 1
        if (anc(v) == root) cnt -= 1
        val pruned = hc != null && v != root && hc.covered(v, scratch.rootDist, d)
        if (!pruned) {
          // nA: highest-ranked vertex on the chosen path h..v inclusive
          val nA = if (rank(anc(v)) >= rank(v)) anc(v) else v
          if (rank(nA) <= rank(root)) sink(v, d)
          // relax ALL edges — dominated vertices propagate their (high-
          // ranked) ancestor so downstream labels stay canonical
          var e = g.offsets(v)
          while (e < g.offsets(v + 1)) {
            val u = g.nbrs(e); val nd = d + g.wts(e)
            if (!scratch.settled(u)) {
              if (nd < dist(u)) {
                val unreached = dist(u) == Dijkstra.Inf
                val pA        = if (unreached) -1 else anc(u)
                if (pA == root && nA != root) cnt -= 1
                else if (pA != root && nA == root) cnt += 1
                anc(u) = nA
                if (unreached) scratch.touch(u)
                dist(u) = nd
                heap.push(nd, u)
              } else if (nd == dist(u) && rank(nA) > rank(anc(u))) {
                // equal-length path with a more important ancestor wins
                val pA = anc(u)
                if (pA == root && nA != root) cnt -= 1
                else if (pA != root && nA == root) cnt += 1
                anc(u) = nA
              }
            }
            e += 1
          }
        }
      }
    }
    explored
  }
}
