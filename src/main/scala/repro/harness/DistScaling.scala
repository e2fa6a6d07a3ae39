package repro.harness

import org.apache.spark.sql.SparkSession
import repro.dist.{DGLL, DistStats, Hybrid, Plant}
import TableMain.failed

/** Supplemental distributed harness backing the paper's fig. 8/9 claims
  * (EXPERIMENTS.md "headline claims"): strong-scaling behaviour and label
  * quality of PLaNT / Hybrid / DGLL / DparaPLL as q grows.
  */
object DistScaling {

  final case class Cell(algo: String, q: Int, stats: DistStats, als: Double)
  final case class Row(dataset: String, cells: Seq[Cell])

  val Qs = Seq(1, 2, 4, 8, 16)
  private val Subset = Seq("cal-lite", "skit-lite", "act-lite")

  def main(args: Array[String]): Unit = {
    val scale = TableMain.scale(args, 0.5)
    TableMain.report(s"Distributed scaling (scale=$scale qs=${Qs.mkString(",")})",
      TableMain.withSpark("dist-scaling")(run(_, scale)))(format, check)
  }

  def run(spark: SparkSession, scale: Double): Seq[Row] =
    Subset.map(Datasets.byName).map { spec =>
      val g    = spec.graph(scale)
      val rank = spec.ranking(g)
      // Ψ stays low on road networks, where Hybrid is meant to stay PLaNT (§7.3)
      val psiTh = if (spec.kind == "road") 500.0 else 100.0
      Row(spec.name, Qs.flatMap { q =>
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
      })
    }

  /** The fig. 8/9 rules; one message per violation. */
  def check(rows: Seq[Row]): Seq[String] =
    rows.flatMap { row =>
      val byAlgo = row.cells.groupBy(_.algo)
      val dpByQ = byAlgo("DparaPLL").sortBy(_.q).map(_.als)
      def bcast(algo: String, q: Int) = byAlgo(algo).find(_.q == q).get.stats.bytesBroadcast
      failed(
        // CHL output is q-invariant for PLaNT / Hybrid / DGLL
        Seq("PLaNT", "Hybrid", "DGLL").map(a => (byAlgo(a).map(_.als).distinct.size == 1) -> s"${row.dataset}/$a ALS varies with q") ++
        // PLaNT never exchanges labels
        byAlgo("PLaNT").map(c => (c.stats.bytesBroadcast == 0) -> s"${row.dataset} q=${c.q}: PLaNT broadcasts") ++
        // DparaPLL's labeling is never smaller than the CHL and degrades with q
        byAlgo("DparaPLL").map(c => (c.als >= byAlgo("PLaNT").head.als - 1e-9) -> s"${row.dataset} q=${c.q}: DparaPLL ALS below CHL") ++
        Seq((dpByQ.last >= dpByQ.head - 1e-9) -> s"${row.dataset}: DparaPLL ALS should not shrink with q") ++
        // Hybrid broadcasts no more than DGLL (communication avoidance)
        Qs.filter(_ > 1).map(q => (bcast("Hybrid", q) <= bcast("DGLL", q)) ->
          s"${row.dataset} q=$q: Hybrid bcast ${bcast("Hybrid", q)} > DGLL ${bcast("DGLL", q)}"): _*)
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
