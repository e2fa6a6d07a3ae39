package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic graphs as edge DataFrames (DESIGN.md §3): weighted edge lists
  * `(src, dst, w)` with positive integer weights. Generation is delegated to
  * the deterministic repro.graph.GraphGen, so jobs and the DuckDB oracle
  * tests share the exact same data.
  */
object SynthData {

  private def edgesDf(spark: SparkSession, g: repro.graph.CsrGraph): DataFrame = {
    import spark.implicits._
    // CSR stores undirected edges in both directions; emit each once.
    val es = for {
      v <- 0 until g.n
      e <- g.offsets(v) until g.offsets(v + 1)
      if v < g.nbrs(e)
    } yield (v, g.nbrs(e), g.wts(e))
    es.toDF("src", "dst", "w")
  }

  /** Road-network analog: `rows x cols` grid with random integer weights. */
  def roadGraphEdges(spark: SparkSession, rows: Int, cols: Int, seed: Long = 7): DataFrame =
    edgesDf(spark, repro.graph.GraphGen.grid(rows, cols, seed))

  /** Scale-free analog: preferential attachment, weights U[1, sqrt(n)). */
  def scaleFreeGraphEdges(spark: SparkSession, n: Int, attach: Int, seed: Long = 11): DataFrame =
    edgesDf(spark, repro.graph.GraphGen.preferentialAttachment(n, attach, seed))
}
