package repro.graph

/** A network hierarchy: a total order on vertices.
  *
  * `rankOf(v)` is the rank value (higher = more important);
  * `order(i)` is the vertex at position `i` from the top, so
  * `rankOf(order(0))` is the maximum. Ranks are a permutation of
  * `0 until n` (ties broken by vertex id at construction time), which the
  * canonical-labeling proofs require.
  */
final class Ranking(val rankOf: Array[Int]) extends Serializable {
  val n: Int = rankOf.length
  require(rankOf.sorted.sameElements(0 until n), "rankOf must be a permutation of 0..n-1")

  /** Vertices from most to least important. */
  val order: Array[Int] = {
    val o = new Array[Int](n)
    var v = 0
    while (v < n) { o(posOf(v)) = v; v += 1 }
    o
  }

  def apply(v: Int): Int = rankOf(v)

  /** Position from the top of the hierarchy (0 = most important). Every
    * label table names a hub by its position, so hub order is integer order.
    */
  def posOf(v: Int): Int = n - 1 - rankOf(v)
}

object Ranking {

  /** Rank by a score, ties broken by smaller vertex id ranking higher —
    * yields a strict total order as the algorithms require.
    */
  def byScore(scores: Array[Double]): Ranking = {
    val n     = scores.length
    val order = (0 until n).sortBy(v => (-scores(v), v)).toArray
    val rank  = new Array[Int](n)
    var i = 0
    while (i < n) { rank(order(i)) = n - 1 - i; i += 1 }
    new Ranking(rank)
  }

  /** Degree ranking — the paper's hierarchy for scale-free graphs (§7.1.1). */
  def byDegree(g: CsrGraph): Ranking =
    byScore(Array.tabulate(g.n)(v => g.degree(v).toDouble))

  /** Sampled-Brandes approximate betweenness — the paper's hierarchy for
    * road networks (§7.1.1): run Dijkstra from `samples` sources and
    * accumulate path dependencies.
    */
  def byApproxBetweenness(g: CsrGraph, samples: Int = 16, seed: Long = 17): Ranking = {
    val n     = g.n
    val score = new Array[Double](n)
    val rnd   = new scala.util.Random(seed)
    val sources = if (n <= samples) (0 until n).toArray else Array.fill(samples)(rnd.nextInt(n))
    val dist  = new Array[Long](n)
    val sigma = new Array[Double](n)
    val delta = new Array[Double](n)
    // Predecessor lists as linked lists in primitive arrays, newest first:
    // `predHead(u)` indexes `predV`/`predNext`, −1 ends a list. Each arc is
    // relaxed at most once per source, so `arcCount` entries suffice.
    val predHead = new Array[Int](n)
    val predV    = new Array[Int](g.arcCount)
    val predNext = new Array[Int](g.arcCount)
    val settledOrder = new Array[Int](n)
    val heap = new LongMinHeap(64)
    for (s <- sources) {
      java.util.Arrays.fill(dist, Dijkstra.Inf)
      java.util.Arrays.fill(sigma, 0.0)
      java.util.Arrays.fill(predHead, -1)
      var preds = 0; var settled = 0
      dist(s) = 0; sigma(s) = 1.0; heap.push(0, s)
      while (heap.nonEmpty) {
        val d = heap.topDist; val v = heap.topVertex; heap.pop()
        if (d == dist(v)) {
          settledOrder(settled) = v; settled += 1
          var e = g.offsets(v)
          while (e < g.offsets(v + 1)) {
            val u = g.nbrs(e); val nd = d + g.wts(e)
            if (nd <= dist(u)) {
              if (nd < dist(u)) {
                dist(u) = nd; sigma(u) = sigma(v); predHead(u) = -1; heap.push(nd, u)
              } else sigma(u) += sigma(v)
              predV(preds) = v; predNext(preds) = predHead(u); predHead(u) = preds; preds += 1
            }
            e += 1
          }
        }
      }
      java.util.Arrays.fill(delta, 0.0)
      var i = settled - 1
      while (i >= 0) {
        val w = settledOrder(i)
        var k = predHead(w)
        while (k >= 0) {
          val p = predV(k)
          delta(p) += sigma(p) / sigma(w) * (1.0 + delta(w))
          k = predNext(k)
        }
        if (w != s) score(w) += delta(w)
        i -= 1
      }
    }
    byScore(score)
  }
}
