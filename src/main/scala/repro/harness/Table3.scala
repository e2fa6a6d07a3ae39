package repro.harness

import repro.core.{GLL, SeqPLL}

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

  def runOne(spec: DatasetSpec, scale: Double, threads: Int, alpha: Double = 4.0,
             runSeq: Boolean = true): Row = {
    val g    = spec.graph(scale)
    val rank = spec.ranking(g)
    val spara = GLL.runParaPLL(g, rank, threads)
    val lcc   = GLL.runLCC(g, rank, threads)
    val gll   = GLL.run(g, rank, threads, alpha)
    val seqT  = if (runSeq) SeqPLL.run(g, rank).timeMs / 1000.0 else Double.NaN
    Row(spec.name,
      sparaAls = spara.labeling.als, sparaTimeS = spara.timeMs / 1000.0,
      chlAls = gll.labeling.als,
      seqTimeS = seqT,
      lccTimeS = lcc.timeMs / 1000.0,
      gllTimeS = gll.timeMs / 1000.0)
  }

  def run(scale: Double, threads: Int, alpha: Double = 4.0,
          names: Seq[String] = Datasets.all.map(_.name)): Seq[Row] =
    names.map { n =>
      val row = runOne(Datasets.byName(n), scale, threads, alpha)
      Console.err.println(s"[table3] done ${row.dataset}")
      row
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
