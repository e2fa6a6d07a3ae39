package repro

import repro.core.{GLL, SeqPLL}
import repro.dist.Plant
import repro.graph.{CsrGraph, Dijkstra, TestGraphs}

/** End-to-end correctness of hub-label PPSD answers against DuckDB: the
  * oracle recomputes all-pairs shortest distances from the raw edge table
  * with a bounded recursive CTE and diffs them against the label queries.
  */
class OracleShortestPathSpec extends SparkSpec {

  /** Both directions of every arc as an edges DataFrame. */
  private def edgesDf(g: CsrGraph) = {
    import spark.implicits._
    (0 until g.n).flatMap { v =>
      (g.offsets(v) until g.offsets(v + 1)).map(e => (v, g.nbrs(e), g.wts(e)))
    }.toDF("src", "dst", "w")
  }

  /** Shortest distances for all ordered pairs src < dst via simple paths of
    * at most n-1 edges (positive weights ⇒ shortest paths are simple).
    */
  private def oracleSql(n: Int): String =
    s"""WITH RECURSIVE walk(src, dst, d, hops) AS (
       |  SELECT CAST(src AS BIGINT), CAST(dst AS BIGINT), CAST(w AS BIGINT), 1 FROM edges
       |  UNION
       |  SELECT wk.src, CAST(e.dst AS BIGINT), wk.d + CAST(e.w AS BIGINT), wk.hops + 1
       |  FROM walk wk JOIN edges e ON wk.dst = CAST(e.src AS BIGINT)
       |  WHERE wk.hops < ${n - 1}
       |)
       |SELECT src AS src, dst AS dst, MIN(d) AS dist
       |FROM walk WHERE src < dst GROUP BY src, dst""".stripMargin

  private def labelDistancesDf(g: CsrGraph, query: (Int, Int) => Long) = {
    import spark.implicits._
    (for {
      u <- 0 until g.n
      v <- (u + 1) until g.n
      d = query(u, v)
      if d < Dijkstra.Inf
    } yield (u, v, d)).toDF("src", "dst", "dist")
  }

  for (seed <- 1 to 6)
    test(s"seqPLL query results match DuckDB shortest paths (seed=$seed)") {
      val g = TestGraphs.randomSparse(8 + seed % 3, 14, maxW = 4, seed = 100 + seed)
      val r = TestUtil.rankingFor(g, seed)
      val l = SeqPLL.run(g, r).labeling
      Oracle.assertEquivalent(labelDistancesDf(g, l.query), oracleSql(g.n), "edges" -> edgesDf(g))
    }

  for (seed <- 1 to 4)
    test(s"GLL query results match DuckDB shortest paths (seed=$seed)") {
      val g = TestGraphs.randomConnected(9, extra = 5, maxW = 4, seed = 200 + seed)
      val r = TestUtil.rankingFor(g, seed)
      val l = GLL.run(g, r, threads = 4).labeling
      Oracle.assertEquivalent(labelDistancesDf(g, l.query), oracleSql(g.n), "edges" -> edgesDf(g))
    }

  for (seed <- 1 to 4)
    test(s"PLaNT query results match DuckDB shortest paths (seed=$seed)") {
      val g = TestGraphs.randomSparse(9, 15, maxW = 4, seed = 300 + seed)
      val r = TestUtil.rankingFor(g, seed)
      val (l, _) = Plant.run(spark, g, r, q = 2)
      Oracle.assertEquivalent(labelDistancesDf(g, l.query), oracleSql(g.n), "edges" -> edgesDf(g))
    }

  test("oracle catches a corrupted labeling") {
    val g = TestGraphs.randomConnected(8, extra = 4, maxW = 3, seed = 7)
    val r = TestUtil.rankingFor(g, 1)
    val l = SeqPLL.run(g, r).labeling
    val broken: (Int, Int) => Long = (u, v) => l.query(u, v) + (if (u == 0 && v == 1) 1 else 0)
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(labelDistancesDf(g, broken), oracleSql(g.n), "edges" -> edgesDf(g))
    }
  }
}
