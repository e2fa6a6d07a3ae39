package repro.harness

import org.apache.spark.sql.SparkSession
import repro.dist.{DGLL, DistStats, Hybrid, Plant}

/** Supplemental distributed harness backing the paper's fig. 8/9 claims
  * (EXPERIMENTS.md "headline claims"): strong-scaling behaviour and label
  * quality of PLaNT / Hybrid / DGLL / DparaPLL as q grows.
  */
object DistScaling {

  final case class Cell(algo: String, q: Int, stats: DistStats, als: Double)
  final case class Row(dataset: String, chlAls: Double, cells: Seq[Cell])

  def runOne(spark: SparkSession, spec: DatasetSpec, scale: Double,
             qs: Seq[Int], psiTh: Double): Row = {
    val g    = spec.graph(scale)
    val rank = spec.ranking(g)
    val cells = qs.flatMap { q =>
      val (pl, ps) = Plant.run(spark, g, rank, q)
      val (hl, hs) = Hybrid.run(spark, g, rank, q, psiTh = psiTh)
      val (dl, ds) = DGLL.run(spark, g, rank, q)
      val (bl, bs) = DGLL.runParaPLL(spark, g, rank, q)
      Console.err.println(s"[scaling] ${spec.name} q=$q done")
      Seq(
        Cell("PLaNT", q, ps, pl.als),
        Cell("Hybrid", q, hs, hl.als),
        Cell("DGLL", q, ds, dl.als),
        Cell("DparaPLL", q, bs, bl.als))
    }
    Row(spec.name, cells.find(_.algo == "PLaNT").map(_.als).getOrElse(Double.NaN), cells)
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"Algo"}%-9s ${"q"}%3s ${"Time(s)"}%8s ${"ALS"}%8s ${"BcastMB"}%8s ${"Syncs"}%6s ${"MaxNodeLabels"}%14s\n"
    rows.foreach { r =>
      r.cells.foreach { c =>
        sb ++= f"${r.dataset}%-10s ${c.algo}%-9s ${c.q}%3d ${c.stats.timeMs / 1000.0}%8.2f ${c.als}%8.1f " +
          f"${c.stats.bytesBroadcast / 1e6}%8.2f ${c.stats.syncs}%6d ${c.stats.perNodeLabels.max}%14d\n"
      }
    }
    sb.result()
  }
}
