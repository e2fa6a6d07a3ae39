package repro.dist

import org.apache.spark.sql.SparkSession
import repro.core.Labeling
import repro.graph.{CsrGraph, Ranking}

/** Pure PLaNT: plant every tree in one batch, communicate nothing (§5.2). */
object Plant {
  def run(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int): (Labeling, DistStats) =
    Hybrid.run(spark, g, rank, q, psiTh = Double.PositiveInfinity, eta = 0)
}
