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
  * `scratch.anc(v)` holds the *rank* of `a[v]`, not its vertex: ranks are a
  * permutation, so every dominance test is an int compare against
  * `rank(h)`, and "the ancestor is `h`" is "the ancestor's rank is
  * `rank(h)`".
  *
  * The tree is *not* pruned (dominated vertices still relax their edges:
  * that is what keeps distances and ancestors exact), except for
  *  - *early termination*: stop when no vertex in the queue has `a[v] = h`
  *    (footnote 6 — every future label would be dominated), tracked by
  *    `cnt`, and
  *  - optional *Common-Label-Table pruning* (§5.3): with the complete label
  *    sets of the η top-ranked hubs on every node, a distance query against
  *    them may prune traversal without risking redundant or missed labels.
  *
  * The heap pops the minimum of the total order on `(distance, vertex)`, so
  * the vertices settle in one order that does not depend on how the heap is
  * built, and so does the pop at which `cnt` reaches 0: the termination
  * point, and with it the explored count. No settled flag is kept: weights
  * are positive ([[CsrGraph]] checks them) and a push strictly lowers
  * `dist(u)`, so the entry with `d == dist(v)` is popped exactly once, and a
  * settled `u` has `dist(u) <= d < d + w`, so neither relaxation branch can
  * fire on it.
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
    val dist    = scratch.dist
    val anc     = scratch.anc
    val heap    = scratch.heap
    val offsets = g.offsets
    val nbrs    = g.nbrs
    val wts     = g.wts
    val rankOf  = rank.rankOf
    val rr      = rankOf(root)
    if (hc != null) hc.appendRootSnapshot(root, scratch)

    dist(root) = 0
    anc(root) = rr
    scratch.touch(root)
    heap.push(0, root)
    var cnt      = 1 // unsettled reached vertices whose ancestor is the root
    var explored = 0L

    while (heap.nonEmpty && cnt > 0) {
      val d = heap.topDist; val v = heap.topVertex; heap.pop()
      if (d == dist(v)) {
        explored += 1
        if (anc(v) == rr) cnt -= 1
        val pruned = hc != null && v != root && hc.covered(v, scratch.rootDist, d)
        if (!pruned) {
          // nA: rank of the highest-ranked vertex on the chosen path h..v inclusive
          val nA = math.max(anc(v), rankOf(v))
          if (nA <= rr) sink(v, d)
          // relax ALL edges — dominated vertices propagate their (high-
          // ranked) ancestor so downstream labels stay canonical
          var e = offsets(v)
          val end = offsets(v + 1)
          while (e < end) {
            val u = nbrs(e); val nd = d + wts(e)
            if (nd < dist(u)) {
              val unreached = dist(u) == Dijkstra.Inf
              val pA        = if (unreached) -1 else anc(u)
              if (pA == rr && nA != rr) cnt -= 1
              else if (pA != rr && nA == rr) cnt += 1
              anc(u) = nA
              if (unreached) scratch.touch(u)
              dist(u) = nd
              heap.push(nd, u)
            } else if (nd == dist(u) && nA > anc(u)) {
              // equal-length path with a more important ancestor wins
              val pA = anc(u)
              if (pA == rr && nA != rr) cnt -= 1
              else if (pA != rr && nA == rr) cnt += 1
              anc(u) = nA
            }
            e += 1
          }
        }
      }
    }
    explored
  }
}
