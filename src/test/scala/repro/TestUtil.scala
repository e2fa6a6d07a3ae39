package repro

import org.scalatest.Assertions._
import repro.core.{LabelBuffers, Labeling, ReferenceCHL}
import repro.graph.{CsrGraph, Dijkstra, GraphGen, Ranking, TestGraphs}

/** Shared fixtures, helpers and assertions for the labeling test suites. */
object TestUtil {

  /** A single hub label: vertex `v` knows its distance `d` to hub `h`. */
  final case class LabelTriple(v: Int, h: Int, d: Long)

  /** A labeling's labels as triples, hubs as vertex ids. */
  implicit final class LabelingTriples(private val l: Labeling) extends AnyVal {
    def triples: Iterator[LabelTriple] =
      (0 until l.n).iterator.flatMap { v =>
        val hs = l.hubs(v); val ds = l.dists(v)
        hs.indices.iterator.map(i => LabelTriple(v, hs(i), ds(i)))
      }

    /** Label set for equality checks against the canonical reference. */
    def tripleSet: Set[(Int, Int, Long)] = triples.map(t => (t.v, t.h, t.d)).toSet
  }

  /** The labeling of `(v, h, d)` triples in any order, hubs as vertex ids.
    * The triples are added by vertex and hub position, so each list ascends.
    */
  def fromTriples(rank: Ranking, ts: Iterable[(Int, Int, Long)]): Labeling = {
    val store = new LabelBuffers(rank.n, threadSafe = false)
    ts.toSeq.map { case (v, h, d) => (v, rank.posOf(h), d) }.sortBy(t => (t._1, t._2))
      .foreach { case (v, p, d) => store.add(v, p, d) }
    store.toLabeling(rank)
  }

  /** All-pairs distances via repeated Dijkstra (O(n·m·log n)). */
  def allPairs(g: CsrGraph): Array[Array[Long]] = Array.tabulate(g.n)(Dijkstra.sssp(g, _))

  /** Identity ranking (vertex id = rank) for deterministic unit tests. */
  def identityRanking(n: Int): Ranking = new Ranking(Array.tabulate(n)(v => v))

  /** Random permutation ranking for property tests. */
  def randomRanking(n: Int, seed: Long): Ranking =
    new Ranking(new scala.util.Random(seed).shuffle((0 until n).toVector).toArray)

  /** A varied family of small graphs keyed by seed: sparse (possibly
    * disconnected), connected random, grid, preferential attachment.
    */
  def graphFor(seed: Int): (CsrGraph, String) = (seed % 4) match {
    case 0 => (TestGraphs.randomSparse(20 + seed % 17, 35 + seed % 23, maxW = 9, seed), "sparse")
    case 1 => (TestGraphs.randomConnected(25 + seed % 13, extra = 12, maxW = 7, seed), "connected")
    case 2 => (GraphGen.grid(4 + seed % 3, 5 + seed % 4, seed), "grid")
    case _ => (GraphGen.preferentialAttachment(24 + seed % 11, 2 + seed % 3, seed), "ba")
  }

  /** Matching ranking family: identity, random, degree, betweenness. */
  def rankingFor(g: CsrGraph, seed: Int): Ranking = (seed % 4) match {
    case 0 => identityRanking(g.n)
    case 1 => randomRanking(g.n, seed)
    case 2 => Ranking.byDegree(g)
    case _ => Ranking.byApproxBetweenness(g, samples = 8, seed = seed)
  }

  /** Cover property: label queries must reproduce every pairwise Dijkstra
    * distance exactly (including Inf for disconnected pairs).
    */
  def assertCover(l: Labeling, g: CsrGraph): Unit = {
    val d = allPairs(g)
    var bad = List.empty[String]
    for (u <- 0 until g.n; v <- 0 until g.n) {
      val got = l.query(u, v)
      if (got != d(u)(v))
        bad ::= s"query($u,$v)=$got expected ${d(u)(v)}"
    }
    assert(bad.isEmpty, s"cover violated (${bad.size} pairs), e.g. ${bad.take(3)}")
  }

  /** Canonicality: the label set must be exactly the brute-force CHL. */
  def assertCanonical(l: Labeling, g: CsrGraph, rank: Ranking): Unit = {
    val expected = ReferenceCHL.labelSet(g, rank)
    val got      = l.tripleSet
    val extra    = got.diff(expected)
    val missing  = expected.diff(got)
    assert(extra.isEmpty && missing.isEmpty,
      s"not canonical: ${extra.size} extra (e.g. ${extra.take(3)}), " +
      s"${missing.size} missing (e.g. ${missing.take(3)})")
  }

  /** Label-set equality, vertex by vertex. */
  def assertSameLabels(expected: Labeling, got: Labeling, what: String): Unit = {
    assert(got.n == expected.n, s"$what: n=${got.n}, expected ${expected.n}")
    val bad = (0 until expected.n).filterNot(v =>
      java.util.Arrays.equals(got.hubs(v), expected.hubs(v)) &&
        java.util.Arrays.equals(got.dists(v), expected.dists(v)))
    assert(bad.isEmpty, s"$what: labels differ at ${bad.size} vertices, e.g. ${bad.take(3)}; " +
      s"${got.labelCount} labels, expected ${expected.labelCount}")
  }

  /** `respects R` (Def. 3): for every connected pair the canonical hub of
    * the pair is present in both label sets — checked against brute force.
    */
  def assertRespectsR(l: Labeling, g: CsrGraph, rank: Ranking): Unit = {
    val expected = ReferenceCHL.labelSet(g, rank)
    val got      = l.tripleSet
    val missing  = expected.diff(got)
    assert(missing.isEmpty, s"does not respect R: missing ${missing.take(5)}")
  }
}
