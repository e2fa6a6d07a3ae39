package repro.core

import repro.graph.{Dijkstra, Ranking}

/** A single hub label: vertex `v` knows its distance `d` to hub `h`. */
final case class LabelTriple(v: Int, h: Int, d: Long)

/** Immutable hub labeling.
  *
  * Per-vertex labels are stored as parallel arrays sorted by hub rank
  * descending — the canonical order both the PPSD query (sorted merge) and
  * the cleaning query (first common hub = highest ranked witness) rely on.
  */
final class Labeling(
    val n: Int,
    val hubs: Array[Array[Int]],
    val dists: Array[Array[Long]],
    val rank: Ranking,
) extends Serializable {

  /** Total number of labels. */
  lazy val labelCount: Long = {
    var s = 0L; var v = 0
    while (v < n) { s += hubs(v).length; v += 1 }
    s
  }

  /** Average label size per vertex — the paper's ALS metric. */
  def als: Double = if (n == 0) 0.0 else labelCount.toDouble / n

  /** PPSD query: minimum `d(u,h)+d(h,v)` over common hubs, `Inf` if none.
    * Sorted-merge over the rank-descending hub lists.
    */
  def query(u: Int, v: Int): Long = {
    val hu = hubs(u); val du = dists(u)
    val hv = hubs(v); val dv = dists(v)
    var i = 0; var j = 0
    var best = Dijkstra.Inf
    while (i < hu.length && j < hv.length) {
      val ri = rank(hu(i)); val rj = rank(hv(j))
      if (ri == rj) {
        val s = du(i) + dv(j)
        if (s < best) best = s
        i += 1; j += 1
      } else if (ri > rj) i += 1
      else j += 1
    }
    best
  }

  /** All labels as triples (order unspecified). */
  def triples: Iterator[LabelTriple] =
    (0 until n).iterator.flatMap { v =>
      hubs(v).indices.iterator.map(i => LabelTriple(v, hubs(v)(i), dists(v)(i)))
    }

  /** Label set for equality checks against the canonical reference. */
  def tripleSet: Set[(Int, Int, Long)] =
    triples.map(t => (t.v, t.h, t.d)).toSet

  /** Bytes of label storage under the paper's accounting (4 B hub + 8 B
    * distance per label).
    */
  def storageBytes: Long = labelCount * Labeling.BytesPerLabel
}

object Labeling {
  /** 4-byte hub id + 8-byte distance, as in the paper's memory numbers. */
  val BytesPerLabel = 12L

  def empty(n: Int, rank: Ranking): Labeling =
    new Labeling(n, Array.fill(n)(Array.emptyIntArray), Array.fill(n)(Array.emptyLongArray), rank)

  /** Build from triples, sorting each vertex's labels by hub rank descending. */
  def fromTriples(n: Int, rank: Ranking, ts: IterableOnce[LabelTriple]): Labeling = {
    val all = ts.iterator.toArray
    fromColumns(n, rank, all.map(_.v), all.map(_.h), all.map(_.d))
  }

  /** Build from parallel label columns `(vs(i), hs(i), ds(i))`, sorting each
    * vertex's labels by hub rank descending.
    */
  def fromColumns(n: Int, rank: Ranking, vs: Array[Int], hs: Array[Int], ds: Array[Long]): Labeling = {
    val counts = new Array[Int](n)
    vs.foreach(v => counts(v) += 1)
    val hubs  = Array.tabulate(n)(v => new Array[Int](counts(v)))
    val dists = Array.tabulate(n)(v => new Array[Long](counts(v)))
    val fill  = new Array[Int](n)
    var k = 0
    while (k < vs.length) {
      val v = vs(k); val i = fill(v); fill(v) = i + 1
      hubs(v)(i) = hs(k); dists(v)(i) = ds(k)
      k += 1
    }
    var v = 0
    while (v < n) { sortByRankDesc(rank, hubs(v), dists(v)); v += 1 }
    new Labeling(n, hubs, dists, rank)
  }

  /** Sort parallel `(hubs, dists)` in place by hub rank descending —
    * boxing-free (packed-long key sort), used on multi-million-label paths.
    */
  def sortByRankDesc(rank: Ranking, hubs: Array[Int], dists: Array[Long]): Unit = {
    val m = hubs.length
    if (m < 2) return
    val keys = new Array[Long](m)
    var i = 0
    // ascending posOf == descending rank; low 32 bits keep the source index
    while (i < m) { keys(i) = (rank.posOf(hubs(i)).toLong << 32) | i.toLong; i += 1 }
    java.util.Arrays.sort(keys)
    val h2 = new Array[Int](m); val d2 = new Array[Long](m)
    i = 0
    while (i < m) {
      val j = (keys(i) & 0xffffffffL).toInt
      h2(i) = hubs(j); d2(i) = dists(j)
      i += 1
    }
    System.arraycopy(h2, 0, hubs, 0, m)
    System.arraycopy(d2, 0, dists, 0, m)
  }
}
