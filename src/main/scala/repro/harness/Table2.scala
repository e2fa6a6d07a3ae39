package repro.harness

import TableMain.failed

/** Table 2 harness: dataset statistics — the paper's real graphs next to
  * our synthetic `*-lite` analogs (substitution documented in DESIGN.md §3).
  */
object Table2 {

  final case class Row(name: String, paperName: String, kind: String,
                       paperN: Long, paperM: Long, n: Int, m: Long)

  def main(args: Array[String]): Unit = {
    val scale = TableMain.scale(args, 1.0)
    TableMain.report(s"Table 2 (dataset analogs, scale=$scale)", run(scale))(format, check)
  }

  def run(scale: Double): Seq[Row] =
    Datasets.all.map { spec =>
      val g = spec.graph(scale)
      Row(spec.name, spec.paperName, spec.kind, spec.paperN, spec.paperM, g.n, g.m)
    }

  /** Table 2's paper-shape rules; one message per violation. */
  def check(rows: Seq[Row]): Seq[String] = {
    val road = rows.filter(_.kind == "road").map(_.n) // sizes grow within each class as in the paper
    failed((rows.size == 12) -> s"${rows.size} dataset rows, not 12",
      (road == road.sorted) -> s"road analogs must grow CAL<EAS<CTR<USA, got n = ${road.mkString(", ")}") ++
      rows.filterNot(r => r.m >= r.n - 1 || r.kind == "road").map(r => s"${r.name}: m = ${r.m} below n - 1 = ${r.n - 1}")
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s ${"Paper"}%-6s ${"Type"}%-11s ${"paper n"}%10s ${"paper m"}%10s ${"our n"}%8s ${"our m"}%9s\n"
    rows.foreach { r =>
      sb ++= f"${r.name}%-10s ${r.paperName}%-6s ${r.kind}%-11s ${r.paperN}%10d ${r.paperM}%10d ${r.n}%8d ${r.m}%9d\n"
    }
    sb.result()
  }
}
