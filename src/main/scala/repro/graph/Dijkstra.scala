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

  /** Single-source shortest distances from `src` (plain binary-heap
    * Dijkstra with lazy deletion).
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

/** Array-backed binary min-heap of (distance, vertex) pairs packed into a
  * single Long (`dist << 21 | v`). Lazy deletion: callers push duplicates
  * and skip stale pops by comparing against their dist array.
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
    var i = size
    arr(i) = (dist << VBits) | v
    size += 1
    while (i > 0 && arr((i - 1) / 2) > arr(i)) {
      val p = (i - 1) / 2
      val t = arr(p); arr(p) = arr(i); arr(i) = t
      i = p
    }
  }

  def pop(): Unit = {
    size -= 1
    arr(0) = arr(size)
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1; val r = l + 1
      var s = i
      if (l < size && arr(l) < arr(s)) s = l
      if (r < size && arr(r) < arr(s)) s = r
      if (s == i) done = true
      else { val t = arr(s); arr(s) = arr(i); arr(i) = t; i = s }
    }
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
