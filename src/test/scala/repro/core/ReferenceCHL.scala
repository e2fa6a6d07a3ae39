package repro.core

import scala.collection.mutable
import repro.TestUtil
import repro.graph.{CsrGraph, Dijkstra, Ranking}

/** Brute-force Canonical Hub Labeling — the correctness oracle.
  *
  * By definition (Abraham et al., §1/§2 of the paper): for every connected
  * pair `(u,v)` (including `u = v`), the single highest-ranked vertex
  * `h_m = argmax_R { w : d(u,w)+d(w,v) = d(u,v) }` over *all* shortest
  * `u–v` paths is added as a hub of both `u` and `v`. The result is the
  * unique minimal labeling that respects `R`.
  *
  * O(n^3) — small graphs only (n ≲ 100).
  */
object ReferenceCHL {

  def labelSet(g: CsrGraph, rank: Ranking): Set[(Int, Int, Long)] = {
    val n = g.n
    val d = TestUtil.allPairs(g)
    val out = mutable.Set.empty[(Int, Int, Long)]
    var u = 0
    while (u < n) {
      var v = u
      while (v < n) {
        if (d(u)(v) < Dijkstra.Inf) {
          var hm   = -1
          var best = -1
          var w = 0
          while (w < n) {
            if (d(u)(w) + d(w)(v) == d(u)(v) && rank(w) > best) { best = rank(w); hm = w }
            w += 1
          }
          out += ((u, hm, d(u)(hm)))
          out += ((v, hm, d(v)(hm)))
        }
        v += 1
      }
      u += 1
    }
    out.toSet
  }

  def apply(g: CsrGraph, rank: Ranking): Labeling = TestUtil.fromTriples(rank, labelSet(g, rank))
}
