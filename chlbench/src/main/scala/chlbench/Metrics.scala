package chlbench

import scala.collection.mutable

object Stats {
  /** Linear-interpolated quantile of an ascending array. */
  def quantileSorted(xs: Array[Long], p: Double): Double = {
    val pos = p * (xs.length - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, xs.length - 1)
    xs(lo) + (xs(hi) - xs(lo)) * (pos - lo)
  }

  /** Median, or 0 for no samples (a layer the workload does not run). */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

final case class Metric(name: String, unit: String, better: String)

/** Metrics computed from a run's spans. End-to-end metrics use the
  * untraced repetitions; per-layer metrics are a function of the span file.
  */
final class Metrics(spans: Seq[Span]) {
  import Stats.median

  private val byId     = spans.map(s => s.id -> s).toMap
  private val children = spans.groupBy(_.parent).withDefaultValue(Nil)

  private def ancestors(s: Span): Iterator[Span] =
    Iterator.iterate(byId.get(s.parent))(_.flatMap(p => byId.get(p.parent))).takeWhile(_.nonEmpty).map(_.get)

  private def under(s: Span, name: String): Boolean = ancestors(s).exists(_.name == name)

  private def named(name: String): Seq[Span] = spans.filter(_.name == name)

  private def reps(traced: Boolean): Seq[Span] =
    named("rep").filter(r => (r.attrs.getOrElse("traced", 0.0) == 1.0) == traced)

  /** Call spans of `name` outside the warm-up; with `traced`, only those in
    * traced repetitions, which carry Spark job spans.
    */
  private def calls(name: String, traced: Boolean = false): Seq[Span] =
    named(name).filter(s => !under(s, "warmup") &&
      (!traced || ancestors(s).exists(a => a.name == "rep" && a.attrs.getOrElse("traced", 0.0) == 1.0)))

  // ------------------------------------------------------------ end to end

  def endToEnd(w: Workload): Map[String, Double] = {
    val timed = reps(traced = false)
    def inRep(r: Span, name: String) = children(r.id).filter(_.name == name)
    // each constructor's median, so that one slow call drops out on its own
    val buildS = w.builds.map(b => median(timed.flatMap(r => inRep(r, b)).map(_.durMs))).sum / 1e3
    def qps(mode: String) =
      median(timed.flatMap(r => inRep(r, s"QueryModes.$mode")).map(s => s.attrs("batch") / (s.durMs / 1e3)))
    Map(
      "setup_s"        -> median(named("setup").map(_.durMs)) / 1e3,
      "build_s"        -> buildS,
      "query_p50_us"   -> named("workload").map(_.attrs("query_p50_us")).sum,
      "query_p99_us"   -> named("workload").map(_.attrs("query_p99_us")).sum,
      "qlsn_qps"       -> qps("qlsn"),
      "qfdl_qps"       -> qps("qfdl"),
      "qdol_qps"       -> qps("qdol"),
      "label_heap_mb"  -> named("labels.heap").map(_.attrs("label_heap_bytes")).sum / 1e6,
    )
  }

  // ------------------------------------------------------------- per layer

  def perLayer: Map[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    out("graph.gen_ms")  = median(named("graph.gen").map(_.durMs))
    out("graph.rank_ms") = median(named("graph.rank").map(_.durMs))
    out("harness.warmup_ms") = named("warmup").map(_.durMs).sum
    val untracedRep = median(reps(traced = false).map(_.durMs))
    val tracedRep   = median(reps(traced = true).map(_.durMs))
    out("harness.trace_overhead_pct") = if (untracedRep > 0) 100 * (tracedRep / untracedRep - 1) else 0

    for ((call, prefix) <- Metrics.Constructors) {
      val cs = calls(call)
      def attr(k: String) = median(cs.map(_.attrs.getOrElse(k, 0.0)))
      def ratio(num: String, den: String) =
        median(cs.map(s => s.attrs.getOrElse(num, 0.0) / math.max(1.0, s.attrs.getOrElse(den, 0.0))))
      out(s"$prefix.wall_ms") = median(cs.map(_.durMs))
      out(s"$prefix.explored") = attr("explored")
      out(s"$prefix.explored_per_label") = ratio("explored", "labels_generated")
      if (prefix == "core.seqpll") out(s"$prefix.labels") = attr("labels")
      else {
        out(s"$prefix.labels_generated") = attr("labels_generated")
        out(s"$prefix.redundant_removed") = attr("redundant_removed")
      }
      if (prefix == "core.gll" || prefix == "core.lcc") {
        out(s"$prefix.construct_ms") = attr("construct_ms")
        out(s"$prefix.clean_ms") = attr("clean_ms")
        out(s"$prefix.other_ms") =
          median(cs.map(s => s.durMs - s.attrs("construct_ms") - s.attrs("clean_ms")))
        out(s"$prefix.supersteps") = attr("supersteps")
        out(s"$prefix.kept_ratio") = ratio("labels", "labels_generated")
      }
      if (prefix.startsWith("dist.")) {
        out(s"$prefix.syncs") = attr("syncs")
        out(s"$prefix.node_labels_max") = attr("node_labels_max")
        out(s"$prefix.node_labels_imbalance") = ratio("node_labels_max", "node_labels_mean")
        out(s"$prefix.bytes_broadcast_modelled") = attr("bytes_broadcast_modelled")
        out(s"$prefix.bytes_allreduce_modelled") = attr("bytes_allreduce_modelled")
        if (prefix == "dist.hybrid") out(s"$prefix.switch_pos") = attr("switch_pos")
        spark(calls(call, traced = true), prefix, Metrics.DistSpark, out)
      }
    }
    out("dist.plant.tree_compute_ms") = named("PlantTree.build").map(_.durMs).sum

    for (mode <- Bench.QueryModeNames) {
      val prefix = s"query.$mode"
      out(s"$prefix.latency_us_modelled") =
        median(calls(s"QueryModes.$mode").map(_.attrs("latency_us_modelled")))
      spark(calls(s"QueryModes.$mode", traced = true), prefix, Metrics.QuerySpark, out)
    }
    out("query.entries_per_query") = median(calls("Labeling.query").map(_.attrs("entries_per_query")))
    out.toMap
  }

  /** Spark counters of each call from its job, stage and task spans, as the
    * median over calls.
    */
  private def spark(cs: Seq[Span], prefix: String, keys: Seq[String],
                    out: mutable.Map[String, Double]): Unit = {
    val perCall = cs.map { c =>
      val jobs   = children(c.id).filter(_.name == "spark.job")
      val stages = jobs.flatMap(j => children(j.id))
      val tasks  = stages.flatMap(s => children(s.id))
      def sum(k: String) = tasks.map(_.attrs.getOrElse(k, 0.0)).sum
      val jobWall = unionMs(jobs.map(j => (math.max(j.startMs, c.startMs), math.min(j.endMs, c.endMs))))
      val skews = stages.map(s => children(s.id).map(_.attrs.getOrElse("run_ms", 0.0))).filter(_.length >= 2)
        .map(rs => rs.max / math.max(1.0, median(rs)))
      Map(
        "jobs" -> jobs.length.toDouble, "stages" -> stages.length.toDouble, "tasks" -> tasks.length.toDouble,
        "task_run_ms" -> sum("run_ms"), "task_cpu_ms" -> sum("cpu_ms"), "task_deser_ms" -> sum("deser_ms"),
        "task_gc_ms" -> sum("gc_ms"), "shuffle_write_bytes" -> sum("shuffle_write_bytes"),
        "shuffle_read_bytes" -> sum("shuffle_read_bytes"), "result_bytes" -> sum("result_bytes"),
        "job_wall_ms" -> jobWall, "driver_ms" -> (c.durMs - jobWall),
        "task_skew" -> (if (skews.isEmpty) 0.0 else skews.max))
    }
    keys.foreach(k => out(s"$prefix.spark_$k") = median(perCall.map(_(k))))
  }

  /** Total length covered by a set of intervals. */
  private def unionMs(iv: Seq[(Double, Double)]): Double = {
    var covered = 0.0
    var end = Double.NegativeInfinity
    iv.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, e) =>
      if (e > end) { covered += e - math.max(s, end); end = e }
    }
    covered
  }
}

object Metrics {
  val EndToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s", "lower"),
    Metric("build_s", "s", "lower"),
    Metric("query_p50_us", "us", "lower"),
    Metric("query_p99_us", "us", "lower"),
    Metric("qlsn_qps", "1/s", "higher"),
    Metric("qfdl_qps", "1/s", "higher"),
    Metric("qdol_qps", "1/s", "higher"),
    Metric("label_heap_mb", "MB", "lower"),
  )

  /** Unit and direction of a per-layer metric, from its name. */
  def layer(name: String): Metric = {
    val unit =
      if (name.endsWith("_ms")) "ms"
      else if (name.contains("_us")) "us"
      else if (name.contains("bytes")) "B"
      else if (name.endsWith("_pct")) "%"
      else if (Seq("ratio", "per_label", "imbalance", "skew").exists(name.endsWith)) "ratio"
      else "count"
    val better = if (name.endsWith("kept_ratio") || name.endsWith("switch_pos")) "higher" else "lower"
    Metric(name, unit, better)
  }

  val Constructors: Seq[(String, String)] = Seq(
    "GLL.run" -> "core.gll", "GLL.runLCC" -> "core.lcc", "SeqPLL.run" -> "core.seqpll",
    "Plant.run" -> "dist.plant", "Hybrid.run" -> "dist.hybrid", "DGLL.run" -> "dist.dgll")

  val DistSpark: Seq[String] = Seq("jobs", "stages", "tasks", "task_run_ms", "task_cpu_ms", "task_deser_ms",
    "task_gc_ms", "shuffle_write_bytes", "shuffle_read_bytes", "result_bytes", "job_wall_ms", "driver_ms",
    "task_skew")

  val QuerySpark: Seq[String] = Seq("jobs", "tasks", "task_run_ms", "result_bytes", "job_wall_ms", "driver_ms")
}
