package repro.core

import repro.graph.{Dijkstra, Ranking}

/** Immutable hub labeling: one flat CSR over all vertices.
  *
  * Vertex `v`'s labels are entries `offsets(v) until offsets(v+1)` of the
  * parallel columns `hubPos` and `hubDist`, the latter kept in pages (see
  * [[Labeling.PageBits]]). As in every label table, a hub is named by its
  * rank position (0 = most important), so each vertex's hubs are sorted
  * ascending — the canonical order the PPSD query's sorted merge relies
  * on. [[hubs]] and [[dists]] copy out one vertex's labels
  * with hubs as vertex ids, in that order. [[LabelBuffers.toLabeling]]
  * builds it.
  */
final class Labeling private[core] (
    val rank: Ranking,
    val offsets: Array[Int],
    val hubPos: Array[Int],
    distPages: Array[Array[Long]],
) extends Serializable {

  val n: Int = rank.n

  /** Label `k`'s distance. */
  def hubDist(k: Int): Long = distPages(k >>> Labeling.PageBits)(k & Labeling.PageMask)

  /** Total number of labels. */
  def labelCount: Long = offsets(n)

  /** Average label size per vertex — the paper's ALS metric. */
  def als: Double = if (n == 0) 0.0 else labelCount.toDouble / n

  /** `v`'s hubs as vertex ids, highest-ranked first. */
  def hubs(v: Int): Array[Int] = {
    val hs = java.util.Arrays.copyOfRange(hubPos, offsets(v), offsets(v + 1))
    var i = 0
    while (i < hs.length) { hs(i) = rank.order(hs(i)); i += 1 }
    hs
  }

  /** `v`'s distances, parallel to [[hubs]]. */
  def dists(v: Int): Array[Long] = Array.tabulate(offsets(v + 1) - offsets(v))(i => hubDist(offsets(v) + i))

  /** PPSD query: minimum `d(u,h)+d(h,v)` over common hubs, `Inf` if none.
    * A sorted merge over the two ascending hub runs: each run skips ahead
    * to the other's current hub, and a hub both reach is a common hub.
    */
  def query(u: Int, v: Int): Long = {
    var i = offsets(u); val iEnd = offsets(u + 1)
    var j = offsets(v); val jEnd = offsets(v + 1)
    var best = Dijkstra.Inf
    if (i == iEnd || j == jEnd) return best
    var a = hubPos(i); var b = hubPos(j)
    while (true) {
      while (a < b) { i += 1; if (i == iEnd) return best; a = hubPos(i) }
      while (b < a) { j += 1; if (j == jEnd) return best; b = hubPos(j) }
      if (a == b) {
        best = math.min(best, hubDist(i) + hubDist(j))
        i += 1; j += 1
        if (i == iEnd || j == jEnd) return best
        a = hubPos(i); b = hubPos(j)
      }
    }
    best
  }

  /** The owner split of a `q`-node cluster: slice `i` holds exactly the
    * labels whose hub position `p` has `p mod q == i` (the circular split
    * QFDL's node `i` and DGLL's node `i` own), as a labeling of the same
    * shape. Since a common hub lies in one slice, the minimum over the
    * slices of `slice.query(u, v)` is `query(u, v)`.
    */
  def ownerSlices(q: Int): Array[Labeling] = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    // slice s's per-vertex counts, shifted by one, then prefix-summed
    val offs = Array.fill(q)(new Array[Int](n + 1))
    var v = 0
    while (v < n) {
      var k = offsets(v)
      while (k < offsets(v + 1)) { offs(hubPos(k) % q)(v + 1) += 1; k += 1 }
      v += 1
    }
    for (o <- offs; w <- 0 until n) o(w + 1) += o(w)
    val hubs  = offs.map(o => new Array[Int](o(n)))
    val pages = offs.map(o => Labeling.distPages(o(n)))
    // labels are read in vertex order, hubs ascending: each slice fills in
    // the same order
    val next = new Array[Int](q)
    var k = 0
    while (k < hubPos.length) {
      val s = hubPos(k) % q; val j = next(s)
      hubs(s)(j) = hubPos(k)
      pages(s)(j >>> Labeling.PageBits)(j & Labeling.PageMask) = hubDist(k)
      next(s) = j + 1
      k += 1
    }
    Array.tabulate(q)(s => new Labeling(rank, offs(s), hubs(s), pages(s)))
  }

  /** Bytes of label storage under the paper's accounting (4 B hub + 8 B
    * distance per label).
    */
  def storageBytes: Long = labelCount * Labeling.BytesPerLabel

  /** Java serialization writes a [[Labeling.Wire]] in place of the CSR. */
  private def writeReplace(): AnyRef = new Labeling.Wire(rank, Labeling.encode(this))
}

object Labeling {
  /** 4-byte hub id + 8-byte distance, as in the paper's memory numbers. */
  val BytesPerLabel = 12L

  /** The distance column is kept in pages of 2^PageBits entries (256 KiB),
    * below half of G1's smallest region (1 MiB). One flat array of it would
    * be a humongous object from 2^16 labels on, and G1 rounds those up to
    * whole regions: 69,453 labels' distances (555,624 B) take a full 1 MiB
    * region under -Xmx2g.
    */
  private[core] final val PageBits = 15
  private[core] final val PageMask = (1 << PageBits) - 1

  /** The serialized form of a [[Labeling]] (what a broadcast or a shipped
    * owner slice stores and sends): the ranking and one array of unsigned
    * varints. It holds each vertex's label count, then for each label, in
    * CSR order, its hub position as the delta from the previous hub of its
    * vertex (the first from 0; the hubs ascend) and its distance. That is
    * about 3 B/label on usa-lite against the 12 B/label of the CSR columns.
    * Deserializing it decodes the CSR back, page for page.
    */
  final class Wire private[core] (rank: Ranking, bytes: Array[Byte]) extends Serializable {
    private def readResolve(): AnyRef = decode(rank, bytes)
  }

  private def encode(l: Labeling): Array[Byte] = {
    val out = new VarintWriter(l.n + 4 * l.hubPos.length)
    out.reserve(l.n)
    var v = 0
    while (v < l.n) { out.put(l.offsets(v + 1) - l.offsets(v)); v += 1 }
    v = 0
    while (v < l.n) {
      out.reserve(2 * (l.offsets(v + 1) - l.offsets(v)))
      var prev = 0
      var k = l.offsets(v)
      while (k < l.offsets(v + 1)) {
        val h = l.hubPos(k)
        out.put(h - prev); out.put(l.hubDist(k))
        prev = h
        k += 1
      }
      v += 1
    }
    out.result()
  }

  private def decode(rank: Ranking, bytes: Array[Byte]): Labeling = {
    val in = new VarintReader(bytes)
    val n = rank.n
    val offsets = new Array[Int](n + 1)
    var v = 0
    while (v < n) { offsets(v + 1) = offsets(v) + in.next().toInt; v += 1 }
    val hubPos = new Array[Int](offsets(n))
    val pages  = distPages(offsets(n))
    var k = 0
    v = 0
    while (v < n) {
      var prev = 0
      while (k < offsets(v + 1)) {
        prev += in.next().toInt
        hubPos(k) = prev
        pages(k >>> PageBits)(k & PageMask) = in.next()
        k += 1
      }
      v += 1
    }
    require(in.pos == bytes.length, s"labeling wire form has ${bytes.length - in.pos} bytes past its last label")
    new Labeling(rank, offsets, hubPos, pages)
  }

  /** A growable byte array of unsigned LEB128 varints: 7 bits a byte, low
    * bits first, the high bit set on every byte but the last. [[put]] does
    * not grow the array; [[reserve]] makes room for the next `count` puts.
    */
  private final class VarintWriter(capacity: Int) {
    private var buf  = new Array[Byte](math.max(16, capacity))
    private var size = 0

    def reserve(count: Int): Unit = {
      val need = size + 10L * count
      if (need > buf.length) buf = java.util.Arrays.copyOf(buf, math.max(need, 2L * buf.length).min(Int.MaxValue - 8).toInt)
    }

    def put(x: Long): Unit = {
      val b = buf
      var p = size
      var y = x
      while ((y & ~0x7fL) != 0) { b(p) = ((y & 0x7f) | 0x80).toByte; p += 1; y >>>= 7 }
      b(p) = y.toByte
      size = p + 1
    }

    def result(): Array[Byte] = java.util.Arrays.copyOf(buf, size)
  }

  /** Reads [[VarintWriter]]'s varints. Most are one or two bytes (hub
    * deltas, counts, road distances), so those skip the loop.
    */
  private final class VarintReader(buf: Array[Byte]) {
    var pos = 0

    def next(): Long = {
      val b0 = buf(pos)
      if (b0 >= 0) { pos += 1; b0 }
      else {
        val b1 = buf(pos + 1)
        if (b1 >= 0) { pos += 2; (b0 & 0x7f) | (b1 << 7) }
        else long()
      }
    }

    private def long(): Long = {
      var x = 0L; var shift = 0; var b = 0
      while ({ b = buf(pos); pos += 1; b < 0 }) { x |= (b & 0x7fL) << shift; shift += 7 }
      x | (b.toLong << shift)
    }
  }

  /** Empty distance pages for `total` labels. */
  private[core] def distPages(total: Int): Array[Array[Long]] =
    Array.tabulate((total + PageMask) >>> PageBits)(p =>
      new Array[Long](math.min(PageMask + 1, total - (p << PageBits))))
}
