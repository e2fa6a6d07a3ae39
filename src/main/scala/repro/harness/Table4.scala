package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.GLL
import repro.query.QueryModes
import TableMain.failed

/** Table 4 harness: query throughput / latency / label-storage memory for
  * QLSN, QFDL and QDOL on a 16-node simulated cluster, over the CHL of
  * each dataset (built with GLL — same labeling every algorithm emits).
  */
object Table4 {

  final case class Row(
      dataset: String,
      qlsn: QueryModes.ModeMetrics,
      qfdl: QueryModes.ModeMetrics,
      qdol: QueryModes.ModeMetrics,
  )

  val Q = 16
  private val Batch = 200000

  def main(args: Array[String]): Unit = {
    val scale = args.headOption.fold(1.0)(_.toDouble)
    TableMain.report(s"Table 4 (scale=$scale q=$Q batch=$Batch)",
      TableMain.withSpark("table4")(run(_, scale)))(format, check)
  }

  def run(spark: SparkSession, scale: Double): Seq[Row] =
    Datasets.all.map { spec =>
      val g    = spec.graph(scale)
      val rank = spec.ranking(g)
      val labeling = GLL.run(g, rank, Runtime.getRuntime.availableProcessors()).labeling
      val (us, vs) = QueryModes.genQueries(g.n, Batch, seed = 42)
      val qlsn = QueryModes.qlsn(spark, labeling, Q, us, vs)
      val qfdl = QueryModes.qfdl(spark, labeling, rank, Q, us, vs)
      val qdol = QueryModes.qdol(spark, labeling, Q, us, vs)
      require(qlsn.distances.sameElements(qfdl.distances) && qlsn.distances.sameElements(qdol.distances),
        s"query modes disagree on ${spec.name}")
      Console.err.println(s"[table4] done ${spec.name}")
      Row(spec.name, qlsn, qfdl, qdol)
    }

  /** Table 4's paper-shape rules; one message per violation. */
  def check(rows: Seq[Row]): Seq[String] = {
    val z = QueryModes.zeta(Q)
    failed((z * (z - 1) / 2 <= Q) -> s"QDOL's $z parts make more pairs than q = $Q nodes") ++ rows.flatMap { r =>
      // memory model: QLSN = q * QFDL; QFDL < QDOL < QLSN
      failed((r.qlsn.memBytesTotal == Q.toLong * r.qfdl.memBytesTotal) -> s"${r.dataset}: QLSN memory is not q x QFDL's",
        (r.qdol.memBytesTotal > r.qfdl.memBytesTotal) -> s"${r.dataset}: QDOL memory not above QFDL's",
        (r.qdol.memBytesTotal < r.qlsn.memBytesTotal) -> s"${r.dataset}: QDOL memory not below QLSN's",
        // latency model: QLSN (no network) < QDOL (P2P) < QFDL (broadcast)
        // unless per-query compute is large enough for QFDL's 1/q split to win
        (r.qlsn.latencyMicros < r.qdol.latencyMicros) -> s"${r.dataset}: QLSN latency not below QDOL's",
        (r.qdol.throughputQps > 0 && r.qfdl.throughputQps > 0 && r.qlsn.throughputQps > 0) ->
          s"${r.dataset}: a throughput is not positive")
    }
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= f"${"Dataset"}%-10s | ${"Thrpt (k q/s)"}%-26s | ${"Latency (us/query)"}%-26s | ${"Label memory (MB)"}%-26s\n"
    sb ++= f"${""}%-10s | ${"QLSN"}%8s ${"QFDL"}%8s ${"QDOL"}%8s | ${"QLSN"}%8s ${"QFDL"}%8s ${"QDOL"}%8s | ${"QLSN"}%8s ${"QFDL"}%8s ${"QDOL"}%8s\n"
    rows.foreach { r =>
      def kqps(m: QueryModes.ModeMetrics) = m.throughputQps / 1e3
      def mb(m: QueryModes.ModeMetrics)   = m.memBytesTotal / 1e6
      sb ++= f"${r.dataset}%-10s | ${kqps(r.qlsn)}%8.1f ${kqps(r.qfdl)}%8.1f ${kqps(r.qdol)}%8.1f" +
        f" | ${r.qlsn.latencyMicros}%8.2f ${r.qfdl.latencyMicros}%8.2f ${r.qdol.latencyMicros}%8.2f" +
        f" | ${mb(r.qlsn)}%8.2f ${mb(r.qfdl)}%8.2f ${mb(r.qdol)}%8.2f\n"
    }
    sb.result()
  }
}
