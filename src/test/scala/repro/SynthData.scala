package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.CsrGraph

/** Synthetic graphs as edge DataFrames (DESIGN.md §3): weighted edge lists
  * `(src, dst, w)` with positive integer weights. Generation is delegated to
  * the deterministic repro.graph.GraphGen, so the DuckDB oracle tests read
  * the same graphs as the other suites.
  */
object SynthData {

  private def edgesDf(spark: SparkSession, g: CsrGraph): DataFrame = {
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

  /** A [[CsrGraph]] from an edge DataFrame with columns `src`, `dst`, `w`
    * (any numeric or string-numeric types). `n` is inferred as `max(id)+1`
    * unless given.
    */
  def fromDataFrame(df: DataFrame, n: Int = -1, undirected: Boolean = true): CsrGraph = {
    val triples = df.select("src", "dst", "w").collect().map { r =>
      def asInt(i: Int): Int = r.get(i) match {
        case l: Long   => l.toInt
        case i2: Int   => i2
        case s: String => s.toInt
        case d: Double => d.toInt
        case x         => throw new IllegalArgumentException(s"bad edge field $x")
      }
      (asInt(0), asInt(1), asInt(2))
    }
    val nn = if (n > 0) n else if (triples.isEmpty) 0 else triples.map(t => math.max(t._1, t._2)).max + 1
    CsrGraph.fromEdges(nn, triples.toIndexedSeq, undirected)
  }
}
