package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.GLL
import repro.query.QueryModes
import TableMain.failed

/** Table 4 harness: query throughput / latency / label-storage memory for
  * QLSN, QFDL and QDOL on a 16-node simulated cluster, over the CHL of
  * each dataset (built with GLL — same labeling every algorithm emits).
  * Each mode serves the batch twice: the first call on the labeling loads
  * the labels the nodes keep resident, and its wall time is the row's
  * first-call ms; the second, resident call gives the mode's metrics.
  */
object Table4 {

  final case class Row(
      dataset: String,
      qlsn: QueryModes.ModeMetrics,
      qfdl: QueryModes.ModeMetrics,
      qdol: QueryModes.ModeMetrics,
      firstCallMs: FirstCallMs,
  )

  /** Each mode's first call on a row's labeling, in ms. */
  final case class FirstCallMs(qlsn: Double, qfdl: Double, qdol: Double)

  val Q = 16
  private val Batch = 200000

  def main(args: Array[String]): Unit = {
    val scale = TableMain.scale(args, 1.0)
    TableMain.report(s"Table 4 (scale=$scale q=$Q batch=$Batch)",
      TableMain.withSpark("table4")(run(_, scale)))(format, check)
  }

  def run(spark: SparkSession, scale: Double): Seq[Row] =
    Datasets.all.map { spec =>
      val g    = spec.graph(scale)
      val rank = spec.ranking(g)
      val labeling = GLL.run(g, rank, Runtime.getRuntime.availableProcessors()).labeling
      val (us, vs) = QueryModes.genQueries(g.n, Batch, seed = 42)
      // a mode's first call and its resident call, which must agree
      def served(call: => QueryModes.ModeMetrics): (QueryModes.ModeMetrics, Double) = {
        val first = call
        val resident = call
        require(first.distances.sameElements(resident.distances), s"${first.mode} answers change between calls on ${spec.name}")
        (resident, Batch / first.throughputQps * 1e3)
      }
      val (qlsn, qlsnFirst) = served(QueryModes.qlsn(spark, labeling, Q, us, vs))
      val (qfdl, qfdlFirst) = served(QueryModes.qfdl(spark, labeling, rank, Q, us, vs))
      val (qdol, qdolFirst) = served(QueryModes.qdol(spark, labeling, Q, us, vs))
      require(qlsn.distances.sameElements(qfdl.distances) && qlsn.distances.sameElements(qdol.distances),
        s"query modes disagree on ${spec.name}")
      Console.err.println(s"[table4] done ${spec.name}")
      Row(spec.name, qlsn, qfdl, qdol, FirstCallMs(qlsnFirst, qfdlFirst, qdolFirst))
    }

  /** Table 4's paper-shape rules; one message per violation. */
  def check(rows: Seq[Row]): Seq[String] = {
    val z = QueryModes.zeta(Q)
    failed((z * (z - 1) / 2 <= Q) -> s"QDOL's $z parts make more pairs than q = $Q nodes") ++ rows.flatMap { r =>
      // memory model: QLSN = q * QFDL; QFDL < QDOL < QLSN
      failed((r.qlsn.memBytesTotal == Q.toLong * r.qfdl.memBytesTotal) -> s"${r.dataset}: QLSN memory is not q x QFDL's",
        (r.qdol.memBytesTotal > r.qfdl.memBytesTotal) -> s"${r.dataset}: QDOL memory not above QFDL's",
        (r.qdol.memBytesTotal < r.qlsn.memBytesTotal) -> s"${r.dataset}: QDOL memory not below QLSN's",
        // per node, the reason for the modes (§6): a QFDL node holds one
        // owner slice, a QDOL node two vertex parts, a QLSN node every label
        (r.qfdl.memBytesMaxNode < r.qdol.memBytesMaxNode) -> s"${r.dataset}: QFDL's largest node not below QDOL's",
        (r.qdol.memBytesMaxNode < r.qlsn.memBytesMaxNode) -> s"${r.dataset}: QDOL's largest node not below QLSN's",
        // latency model: QLSN (no network) < QDOL (P2P) < QFDL (broadcast)
        // unless per-query compute is large enough for QFDL's 1/q split to win
        (r.qlsn.latencyMicros < r.qdol.latencyMicros) -> s"${r.dataset}: QLSN latency not below QDOL's",
        (r.qdol.throughputQps > 0 && r.qfdl.throughputQps > 0 && r.qlsn.throughputQps > 0) ->
          s"${r.dataset}: a throughput is not positive")
    }
  }

  def format(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    val modes = f"${"QLSN"}%8s ${"QFDL"}%8s ${"QDOL"}%8s"
    sb ++= f"${"Dataset"}%-10s | ${"Thrpt (k q/s)"}%-26s | ${"Latency (us/query)"}%-26s | ${"Label memory (MB)"}%-26s" +
      f" | ${"Largest node (MB)"}%-26s | ${"First call (ms)"}%-26s\n"
    sb ++= f"${""}%-10s | $modes | $modes | $modes | $modes | $modes\n"
    rows.foreach { r =>
      def kqps(m: QueryModes.ModeMetrics) = m.throughputQps / 1e3
      def mb(bytes: Long)                 = bytes / 1e6
      sb ++= f"${r.dataset}%-10s | ${kqps(r.qlsn)}%8.1f ${kqps(r.qfdl)}%8.1f ${kqps(r.qdol)}%8.1f" +
        f" | ${r.qlsn.latencyMicros}%8.2f ${r.qfdl.latencyMicros}%8.2f ${r.qdol.latencyMicros}%8.2f" +
        f" | ${mb(r.qlsn.memBytesTotal)}%8.2f ${mb(r.qfdl.memBytesTotal)}%8.2f ${mb(r.qdol.memBytesTotal)}%8.2f" +
        f" | ${mb(r.qlsn.memBytesMaxNode)}%8.2f ${mb(r.qfdl.memBytesMaxNode)}%8.2f ${mb(r.qdol.memBytesMaxNode)}%8.2f" +
        f" | ${r.firstCallMs.qlsn}%8.1f ${r.firstCallMs.qfdl}%8.1f ${r.firstCallMs.qdol}%8.1f\n"
    }
    sb.result()
  }
}
