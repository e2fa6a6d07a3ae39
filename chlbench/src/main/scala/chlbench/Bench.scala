package chlbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.{DijkstraScratch, GLL, Labeling, SeqPLL}
import repro.dist.{DGLL, DistStats, Hybrid, Plant, PlantTree}
import repro.graph.{CsrGraph, Dijkstra, Ranking}
import repro.harness.Datasets
import repro.query.QueryModes

/** A named workload: one dataset analog at scale 1.0 and the constructors
  * a repetition calls.
  */
final case class Workload(name: String, dataset: String, builds: Seq[String])

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("road-build", "usa-lite", Seq("GLL.run", "GLL.runLCC")),
    Workload("sf-dist", "skit-lite", Seq("Plant.run", "Hybrid.run", "DGLL.run")),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}

/** One benchmark run: the SeqPLL reference, the label heap, set-up,
  * [[Bench.WarmupReps]] untimed warm-up repetition, then at least
  * [[Bench.MinReps]] timed repetitions, and more while they fit in
  * `seconds`. Every call into the program is a span; with `trace` every
  * other repetition also records its Spark jobs.
  *
  * The graph is the dataset's own, with its default generator seed. Other
  * generator seeds change the instance itself: on pok-lite they moved the
  * label count by up to 18%, so figures from different seeds would differ by
  * more than any regression bound. `seed` draws the query pairs and the
  * Dijkstra sample.
  */
final class Bench(w: Workload, seed: Long, seconds: Double, trace: Boolean, outDir: File) {
  import Bench._

  val tracer = new Tracer
  private val threads = Runtime.getRuntime.availableProcessors()
  private val spec    = Datasets.byName(w.dataset)

  private var g: CsrGraph        = _
  private var rank: Ranking      = _
  private var spark: SparkSession = _
  private var sparkTrace: SparkTrace = _
  private var reference: Labeling = _

  var attempted = 0
  var failed    = 0
  var reps      = 0

  def run(): Unit = {
    try tracer.span("run") { _ =>
      tracer.span("workload") { a =>
        a("seed") = seed.toDouble
        g = spec.graph(1.0)
        rank = spec.ranking(g)
        buildReference()
        // before Spark starts, so that nothing else allocates or frees heap
        // between the two readings around the build
        labelHeap()
        // the first set-up also pays for Spark's cold start; the median
        // over the later, cheaper ones needs more of them on small graphs
        setUp()
        val setupStart = tracer.nowMs
        var setups = 1
        while (setups < MinSetups || tracer.nowMs - setupStart < SetupSeconds * 1000) {
          setUp()
          setups += 1
        }
        if (trace) {
          sparkTrace = new SparkTrace(spark.sparkContext, tracer)
          spark.sparkContext.addSparkListener(sparkTrace)
        }
        tracer.span("warmup") { _ =>
          for (_ <- 0 until WarmupReps) repetition(traced = false)
          report("warm-up")
        }
        val latencies = mutable.ArrayBuffer.empty[Array[Long]]
        val start = tracer.nowMs
        var lastRepMs = 0.0
        // past the minimum, a repetition starts only if one as long as the
        // last still ends within `seconds`
        while (reps < MinReps || tracer.nowMs - start + lastRepMs <= seconds * 1000) {
          val repStart = tracer.nowMs
          // a traced run alternates untraced and traced repetitions so that
          // the difference between them is the tracing overhead
          val traced = trace && reps % 2 == 1
          tracer.span("rep") { ra =>
            ra("index") = reps
            ra("traced") = if (traced) 1 else 0
            val lat = repetition(traced)
            if (!traced) latencies += lat
            report(s"rep $reps")
          }
          lastRepMs = tracer.nowMs - repStart
          reps += 1
        }
        // query percentiles over the loop samples of all untraced repetitions
        val pooled = latencies.flatten.toArray
        java.util.Arrays.sort(pooled)
        a("query_samples") = pooled.length.toDouble
        a("query_p50_us") = Stats.quantileSorted(pooled, 0.50) / 1e3
        a("query_p99_us") = Stats.quantileSorted(pooled, 0.99) / 1e3
        if (trace) {
          if (w.builds.contains("Plant.run")) plantTreeCompute()
          sparkTrace.flush()
        }
      }
    } finally if (spark != null) spark.stop()
  }

  // ------------------------------------------------------------- set-up

  private def setUp(): Unit = {
    if (spark != null) { spark.stop(); spark = null }
    tracer.span("setup") { _ =>
      g    = tracer.span("graph.gen")(_ => spec.graph(1.0))
      rank = tracer.span("graph.rank")(_ => spec.ranking(g))
      spark = tracer.span("spark.start")(_ => startSpark())
    }
  }

  private def startSpark(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("chlbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.warehouse.dir", new File(outDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  // ---------------------------------------------------------- reference

  /** SeqPLL is canonical by construction: its labels are the CHL every
    * other constructor must reproduce.
    */
  private def buildReference(): Unit = tracer.span("reference") { _ =>
    val ref = tracer.span("SeqPLL.run") { ca =>
      val r = SeqPLL.run(g, rank)
      ca("time_ms") = r.timeMs.toDouble
      ca("explored") = r.explored.toDouble
      ca("labels_generated") = r.labeling.labelCount.toDouble
      ca("labels") = r.labeling.labelCount.toDouble
      r.labeling
    }
    reference = ref
    val rnd = new Random(seed)
    val ok = tracer.span("Dijkstra.sssp") { _ =>
      (0 until DijkstraSources).forall { _ =>
        val s = rnd.nextInt(g.n)
        val d = Dijkstra.sssp(g, s)
        (0 until g.n).forall(t => ref.query(s, t) == d(t))
      }
    }
    check(s"SeqPLL answers match Dijkstra.sssp from $DijkstraSources sources", ok)
  }

  /** The live heap a GLL `Labeling` adds: one untimed `GLL.run`, with full
    * collections before it and while its result is held. Its labels are
    * checked like every other build's.
    */
  private def labelHeap(): Unit = tracer.span("labels.heap") { a =>
    val before = liveHeapBytes()
    val l = GLL.run(g, rank, threads, alpha = 4.0).labeling
    a("label_heap_bytes") = (liveHeapBytes() - before).toDouble
    check("GLL.run labels equal the SeqPLL CHL", sameLabels(reference, l))
  }

  // -------------------------------------------------------- repetitions

  /** The workload's constructors, then the query batch. Queries read the
    * reference labels, so every repetition reads the same memory layout.
    */
  private def repetition(traced: Boolean): Array[Long] = {
    // a full collection before each timed phase, so that no phase pays for
    // the garbage of the one before it
    System.gc()
    w.builds.foreach(build(_, traced))
    System.gc()
    queries(reference, traced)
  }

  /** Calls one constructor, records its own counters on the span and checks
    * its labels.
    */
  private def build(name: String, traced: Boolean): Unit = {
    val l = try call(name, traced) { a =>
      name match {
        case "GLL.run"    => gllAttrs(a, GLL.run(g, rank, threads, alpha = 4.0))
        case "GLL.runLCC" => gllAttrs(a, GLL.runLCC(g, rank, threads))
        case "Plant.run"  => distAttrs(a, Plant.run(spark, g, rank, Q))
        case "Hybrid.run" => distAttrs(a, Hybrid.run(spark, g, rank, Q, psiTh = 100.0, eta = 16))
        case "DGLL.run"   => distAttrs(a, DGLL.run(spark, g, rank, Q, beta = 8))
      }
    } catch { case NonFatal(e) => e.printStackTrace(); null }
    if (l == null) check(s"$name completes", ok = false)
    else check(s"$name labels equal the SeqPLL CHL", sameLabels(reference, l))
  }

  private def gllAttrs(a: mutable.Map[String, Double], r: GLL.Result): Labeling = {
    a("time_ms") = r.timeMs.toDouble
    a("construct_ms") = r.constructMs.toDouble
    a("clean_ms") = r.cleanMs.toDouble
    a("supersteps") = r.supersteps.toDouble
    a("labels_generated") = r.labelsGenerated.toDouble
    a("redundant_removed") = r.redundantRemoved.toDouble
    a("explored") = r.explored.toDouble
    a("labels") = r.labeling.labelCount.toDouble
    r.labeling
  }

  private def distAttrs(a: mutable.Map[String, Double], r: (Labeling, DistStats)): Labeling = {
    val (l, s) = r
    a("time_ms") = s.timeMs.toDouble
    a("syncs") = s.syncs.toDouble
    a("labels_generated") = s.labelsGenerated.toDouble
    a("redundant_removed") = s.redundantRemoved.toDouble
    a("explored") = s.explored.toDouble
    a("labels") = s.labelsFinal.toDouble
    a("node_labels_max") = s.perNodeLabels.max.toDouble
    a("node_labels_mean") = s.perNodeLabels.sum.toDouble / s.perNodeLabels.length
    a("switch_pos") = s.switchPos.toDouble
    a("bytes_broadcast_modelled") = s.bytesBroadcast.toDouble
    a("bytes_allreduce_modelled") = s.bytesAllReduce.toDouble
    l
  }

  /** A single-thread closed loop of `Labeling.query` calls over the batch's
    * pairs, each call timed, in chunks of [[LoopChunk]] until
    * [[LoopSeconds]] have passed; then [[ModeRounds]] rounds of the batch
    * through the three query modes in turn. Every mode must return the
    * loop's answers. Returns the loop's call times in ns, sorted.
    */
  private def queries(l: Labeling, traced: Boolean): Array[Long] = {
    val (us, vs) = QueryModes.genQueries(g.n, QueryBatch, seed)
    val (answers, lat) = call("Labeling.query", traced) { a =>
      val out = new Array[Long](us.length)
      val chunks = mutable.ArrayBuffer.empty[Array[Long]]
      val loopStart = System.nanoTime()
      var k = 0
      while (chunks.isEmpty || System.nanoTime() - loopStart < LoopSeconds * 1e9) {
        val chunk = new Array[Long](LoopChunk)
        var c = 0
        while (c < LoopChunk) {
          val i = k % us.length
          val t0 = System.nanoTime()
          out(i) = l.query(us(i), vs(i))
          chunk(c) = System.nanoTime() - t0
          c += 1
          k += 1
        }
        chunks += chunk
      }
      val lat = Array.concat(chunks.toSeq: _*)
      java.util.Arrays.sort(lat)
      a("samples") = lat.length.toDouble
      a("p50_us") = Stats.quantileSorted(lat, 0.50) / 1e3
      a("p99_us") = Stats.quantileSorted(lat, 0.99) / 1e3
      var entries = 0L
      var i = 0
      while (i < us.length) { entries += l.hubs(us(i)).length + l.hubs(vs(i)).length; i += 1 }
      a("entries_per_query") = entries.toDouble / us.length
      (out, lat)
    }
    def callMode(mode: String): Unit = {
      val ds = try call(s"QueryModes.$mode", traced) { a =>
        val m = mode match {
          case "qlsn" => QueryModes.qlsn(spark, l, Q, us, vs)
          case "qfdl" => QueryModes.qfdl(spark, l, rank, Q, us, vs)
          case "qdol" => QueryModes.qdol(spark, l, Q, us, vs)
        }
        a("batch") = us.length.toDouble
        a("latency_us_modelled") = m.latencyMicros
        m.distances
      } catch { case NonFatal(e) => e.printStackTrace(); null }
      check(s"QueryModes.$mode answers equal Labeling.query", ds != null && ds.sameElements(answers))
    }
    for (_ <- 0 until ModeRounds) QueryModeNames.foreach(callMode)
    lat
  }

  /** Traced runs only: every PLaNT tree built on one thread, to split PLaNT's
    * wall time into tree compute and Spark overhead.
    */
  private def plantTreeCompute(): Unit = tracer.span("PlantTree.build") { a =>
    val scratch = new DijkstraScratch(g.n)
    var labels = 0L
    var p = 0
    while (p < g.n) {
      PlantTree.build(g, rank, rank.order(p), null, scratch, sink = (_, _) => labels += 1)
      p += 1
    }
    a("labels_generated") = labels.toDouble
  }

  // ------------------------------------------------------------ helpers

  private def call[A](name: String, traced: Boolean)(body: mutable.Map[String, Double] => A): A =
    tracer.span(name) { a => if (traced) sparkTrace.attributed(body(a)) else body(a) }

  /** One stderr line with the wall time of each call in the open span. */
  private def report(label: String): Unit = {
    val id = tracer.currentId
    Console.err.println(s"[chlbench] $label: " + tracer.spans.filter(_.parent == id)
      .map(c => f"${c.name} ${c.durMs}%.0f ms" + c.attrs.get("p50_us").fold("")(p => f" (p50 $p%.3f us)"))
      .mkString(", "))
  }

  private def check(what: String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      Console.err.println(s"[chlbench] FAILED: $what")
    }
  }
}

object Bench {
  val Q               = 16
  val MinSetups       = 3
  val SetupSeconds    = 1
  val MinReps         = 3
  val WarmupReps      = 1
  val ModeRounds      = 3
  /** Query pairs per batch, on every workload. The repo's Table 4 sends
    * 200,000; the README gives the run times that rule that size out.
    */
  val QueryBatch      = 50000
  val LoopChunk       = 100000
  val LoopSeconds     = 0.5
  val HeapSettleBytes = 64L * 1024
  val DijkstraSources = 4
  val QueryModeNames  = Seq("qlsn", "qfdl", "qdol")

  /** Live heap after a full collection, once two readings agree. */
  def liveHeapBytes(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    def collected(): Long = { System.gc(); mem.getHeapMemoryUsage.getUsed }
    var last  = collected()
    var cur   = last
    var tries = 0
    do {
      Thread.sleep(100)
      last = cur
      cur = collected()
      tries += 1
    } while (math.abs(cur - last) > HeapSettleBytes && tries < 20)
    cur
  }

  /** Array-for-array equality of two labelings (both rank-sorted). */
  def sameLabels(a: Labeling, b: Labeling): Boolean =
    a.n == b.n && (0 until a.n).forall(v =>
      java.util.Arrays.equals(a.hubs(v), b.hubs(v)) && java.util.Arrays.equals(a.dists(v), b.dists(v)))
}
