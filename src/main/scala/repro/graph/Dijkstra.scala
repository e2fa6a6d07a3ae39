package repro.graph

/** Reference shortest paths — the independent distance oracle used by
  * the tests and by chlbench's correctness gate. The approximate-betweenness
  * ranking runs its own Brandes passes and shares only [[Inf]] and
  * [[LongMinHeap]].
  */
object Dijkstra {

  /** Sentinel for "unreachable", and for "no label" in the root snapshot
    * of `DijkstraScratch`. Every admitted distance is below
    * `LongMinHeap.MaxDistance` (2^42, checked by [[CsrGraph]] at ingest),
    * so its sum with `Inf` stays below `Long.MaxValue` and exceeds every
    * admitted distance.
    */
  val Inf: Long = Long.MaxValue / 4

  /** Single-source shortest distances from `src` (plain Dijkstra on
    * [[LongMinHeap]] with lazy deletion).
    */
  def sssp(g: CsrGraph, src: Int): Array[Long] = {
    val dist = Array.fill[Long](g.n)(Inf)
    val heap = new LongMinHeap(64)
    dist(src) = 0
    heap.push(0L, src)
    while (heap.nonEmpty) {
      val d = heap.topDist; val v = heap.topVertex; heap.pop()
      if (d == dist(v)) {
        var e = g.offsets(v)
        while (e < g.offsets(v + 1)) {
          val u = g.nbrs(e); val nd = d + g.wts(e)
          if (nd < dist(u)) { dist(u) = nd; heap.push(nd, u) }
          e += 1
        }
      }
    }
    dist
  }
}

/** Array-backed 4-ary min-heap of (distance, vertex) pairs packed into a
  * single Long (`dist << 21 | v`), so it pops the minimum of the total order
  * on `(dist, vertex)`: ties on distance go to the smaller vertex. Lazy
  * deletion: callers push duplicates and skip stale pops by comparing
  * against their dist array.
  *
  * Four children per node halve the depth a push climbs; PLaNT's trees push
  * about twice as often as they pop, since early termination leaves most of
  * the frontier in the heap. Both sifts move a hole instead of swapping:
  * push moves parents down until the new key fits, pop moves the smallest
  * child up until the last key fits.
  *
  * Packing limits: vertices `< 2^21` and distances `< 2^42`, checked once
  * for every graph when its [[CsrGraph]] is built, not on each push.
  */
final class LongMinHeap(initialCapacity: Int) {
  import LongMinHeap.{VBits, VMask}

  private var arr  = new Array[Long](math.max(4, initialCapacity))
  private var size = 0

  def nonEmpty: Boolean = size > 0

  def topDist: Long  = arr(0) >>> VBits
  def topVertex: Int = (arr(0) & VMask).toInt

  def push(dist: Long, v: Int): Unit = {
    if (size == arr.length) arr = java.util.Arrays.copyOf(arr, arr.length * 2)
    val a   = arr
    val key = (dist << VBits) | v
    var i   = size
    size += 1
    while (i > 0 && a((i - 1) >> 2) > key) {
      val p = (i - 1) >> 2
      a(i) = a(p)
      i = p
    }
    a(i) = key
  }

  def pop(): Unit = {
    size -= 1
    val a   = arr
    val n   = size
    val key = a(n)
    var i   = 0
    var c   = 1 // first child of i
    while (c < n) {
      // the smallest of the up to four children c .. c+3
      var m  = c
      var mk = a(c)
      val end = if (c + 4 < n) c + 4 else n
      var j = c + 1
      while (j < end) { val jk = a(j); if (jk < mk) { m = j; mk = jk }; j += 1 }
      if (mk < key) { a(i) = mk; i = m; c = (i << 2) + 1 }
      else c = n
    }
    a(i) = key
  }

  def clear(): Unit = size = 0
}

object LongMinHeap {
  private final val VBits = 21
  private final val VMask = (1L << VBits) - 1

  /** Vertices must be below this. */
  final val MaxVertices: Int = 1 << VBits
  /** Distances must be below this. */
  final val MaxDistance: Long = 1L << (63 - VBits)
}
