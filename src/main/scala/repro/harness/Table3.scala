package repro.harness

import repro.core.{GLL, SeqPLL}
import TableMain.failed

/** Table 3 harness: shared-memory ALS + build-time comparison of
  * SparaPLL, seqPLL, LCC and GLL on every dataset. `CHL ALS` is the
  * average label size of the canonical labeling (GLL's output — LCC and
  * seqPLL produce the identical label set, asserted in the test suites).
  */
object Table3 {

  final case class Row(
      dataset: String,
      sparaAls: Double, sparaTimeS: Double,
      chlAls: Double,
      seqTimeS: Double,
      lccTimeS: Double,
      gllTimeS: Double,
  )

  private val Threads = Runtime.getRuntime.availableProcessors()

  def main(args: Array[String]): Unit = {
    val scale = TableMain.scale(args, 1.0)
    TableMain.report(s"Table 3 (scale=$scale threads=$Threads alpha=4)", run(scale))(format, check)
  }

  def run(scale: Double): Seq[Row] =
    Datasets.all.map { spec =>
      val g    = spec.graph(scale)
      val rank = spec.ranking(g)
      val spara = GLL.runParaPLL(g, rank, Threads)
      val lcc   = GLL.runLCC(g, rank, Threads)
      val gll   = GLL.run(g, rank, Threads)
      val seq   = SeqPLL.run(g, rank)
      Console.err.println(s"[table3] done ${spec.name}")
      Row(spec.name,
        sparaAls = spara.labeling.als, sparaTimeS = spara.timeMs / 1000.0,
        chlAls = gll.labeling.als,
        seqTimeS = seq.timeMs / 1000.0,
        lccTimeS = lcc.timeMs / 1000.0,
        gllTimeS = gll.timeMs / 1000.0)
    }

  /** Table 3's paper-shape rules; one message per violation. */
  def check(rows: Seq[Row]): Seq[String] =
    rows.flatMap { r =>
      failed((r.chlAls > 0) -> s"${r.dataset}: CHL ALS ${r.chlAls} is not positive",
        // minimality of the CHL vs paraPLL's redundant labeling (ALS column);
        // 2% slack for scheduling nondeterminism in the racing trees
        (r.sparaAls >= 0.98 * r.chlAls) -> s"${r.dataset}: SparaPLL ALS ${r.sparaAls} below CHL ${r.chlAls}",
        (r.gllTimeS > 0 && r.lccTimeS > 0 && r.sparaTimeS > 0) -> s"${r.dataset}: a build time is not positive",
        // the paper's headline: parallel construction beats sequential PLL on
        // the heavy datasets (usa/ctr/pok are the slowest for seqPLL)
        (!Set("ctr-lite", "usa-lite", "pok-lite")(r.dataset) || r.seqTimeS > r.gllTimeS) ->
          s"${r.dataset}: seqPLL ${r.seqTimeS}s not slower than GLL ${r.gllTimeS}s")
    }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"SparaALS"}%9s ${"SparaT(s)"}%10s ${"CHL-ALS"}%8s ${"seqT(s)"}%9s ${"LCCT(s)"}%9s ${"GLLT(s)"}%9s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-10s ${r.sparaAls}%9.1f ${r.sparaTimeS}%10.2f ${r.chlAls}%8.1f ${r.seqTimeS}%9.2f ${r.lccTimeS}%9.2f ${r.gllTimeS}%9.2f\n"
    }
    sb.result()
  }
}
