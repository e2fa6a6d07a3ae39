package chlbench

import java.io.{File, PrintWriter}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval of the run. Times are milliseconds since the run
  * started; `parent` is -1 for the root span.
  */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      attrs: Map[String, Double]) {
  def durMs: Double = endMs - startMs
}

/** In-memory span recorder for the driver thread.
  *
  * Spans opened with [[span]] nest by call order. Spark job, stage and task
  * spans arrive later from [[SparkTrace]] and hang under the call span that
  * was open when the job was submitted.
  */
final class Tracer {
  private val t0Ns    = System.nanoTime()
  private val t0Epoch = System.currentTimeMillis()
  private val done    = mutable.ArrayBuffer.empty[Span]
  private var stack   = List.empty[(Int, String, Double, mutable.Map[String, Double])]
  private var nextId  = 0

  def nowMs: Double = (System.nanoTime() - t0Ns) / 1e6

  /** Converts a wall-clock timestamp (Spark's listener events) to run time. */
  def epochToRunMs(epochMs: Long): Double = (epochMs - t0Epoch).toDouble

  def currentId: Int = stack.headOption.map(_._1).getOrElse(-1)

  /** Runs `body` inside a span; `body` may add attributes to the map. */
  def span[A](name: String)(body: mutable.Map[String, Double] => A): A = {
    val id = newId()
    val attrs = mutable.LinkedHashMap.empty[String, Double]
    stack ::= ((id, name, nowMs, attrs))
    try body(attrs)
    finally {
      val (_, _, start, a) = stack.head
      stack = stack.tail
      done += Span(id, currentId, name, start, nowMs, a.toMap)
    }
  }

  def newId(): Int = { nextId += 1; nextId }

  def add(s: Span): Unit = done += s

  def spans: Seq[Span] = done.sortBy(_.id).toSeq
}

/** Records Spark jobs, stages and tasks as spans under the call that
  * submitted them. The call's span id travels to the listener as a local
  * property of the submitting thread.
  */
final class SparkTrace(sc: SparkContext, tracer: Tracer) extends SparkListener {
  import SparkTrace._

  private val jobs   = new ConcurrentLinkedQueue[Job]()
  private val stages = new ConcurrentLinkedQueue[StageInfo]()
  private val tasks  = new ConcurrentLinkedQueue[Task]()
  @volatile private var drained = false

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val prop = Option(e.properties).map(_.getProperty(SpanProperty)).orNull
    if (prop == DrainMarker) drained = true
    else if (prop != null) jobs.add(Job(e.jobId, prop.toInt, e.time, e.stageIds))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    jobs.asScala.find(_.id == e.jobId).foreach(_.end = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.add(e.stageInfo)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val attrs =
      if (m == null) Map.empty[String, Double]
      else Map(
        "run_ms"              -> m.executorRunTime.toDouble,
        "cpu_ms"              -> m.executorCpuTime / 1e6,
        "deser_ms"            -> m.executorDeserializeTime.toDouble,
        "gc_ms"               -> m.jvmGCTime.toDouble,
        "result_bytes"        -> m.resultSize.toDouble,
        "shuffle_write_bytes" -> m.shuffleWriteMetrics.bytesWritten.toDouble,
        "shuffle_read_bytes"  -> m.shuffleReadMetrics.totalBytesRead.toDouble)
    tasks.add(Task(e.stageId, e.stageAttemptId, e.taskInfo.launchTime, e.taskInfo.finishTime, attrs))
  }

  /** Runs `body` with its Spark jobs attributed to the current span. */
  def attributed[A](body: => A): A = {
    sc.setLocalProperty(SpanProperty, tracer.currentId.toString)
    try body finally sc.setLocalProperty(SpanProperty, null)
  }

  /** Waits until the listener has seen every event posted so far (the bus
    * delivers in order, so a marker job's start comes after them), then
    * turns the recorded jobs, stages and tasks into spans.
    */
  def flush(): Unit = {
    sc.setLocalProperty(SpanProperty, DrainMarker)
    try sc.parallelize(Seq(0), 1).count() finally sc.setLocalProperty(SpanProperty, null)
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!drained && System.nanoTime() < deadline) Thread.sleep(5)
    require(drained, "Spark listener bus did not drain within 30 s")
    drained = false

    val jobSpan = mutable.Map.empty[Int, Int] // job id -> span id
    val jobList = jobs.asScala.toSeq.sortBy(_.id)
    jobList.foreach { j =>
      val id = tracer.newId()
      jobSpan(j.id) = id
      val end = if (j.end >= 0) j.end else j.start
      tracer.add(Span(id, j.callSpan, "spark.job", tracer.epochToRunMs(j.start), tracer.epochToRunMs(end), Map.empty))
    }
    val stageSpan = mutable.Map.empty[(Int, Int), Int]
    stages.asScala.toSeq.sortBy(s => (s.stageId, s.attemptNumber())).foreach { s =>
      val submit = s.submissionTime.getOrElse(0L)
      // a stage id can be listed by several jobs; it ran under the one that
      // was active when it was submitted
      jobList.find(j => j.stageIds.contains(s.stageId) && j.start <= submit && (j.end < 0 || submit <= j.end))
        .foreach { j =>
          val id = tracer.newId()
          stageSpan((s.stageId, s.attemptNumber())) = id
          tracer.add(Span(id, jobSpan(j.id), "spark.stage", tracer.epochToRunMs(submit),
            tracer.epochToRunMs(s.completionTime.getOrElse(submit)), Map("tasks" -> s.numTasks.toDouble)))
        }
    }
    tasks.asScala.foreach { t =>
      stageSpan.get((t.stage, t.attempt)).foreach { parent =>
        tracer.add(Span(tracer.newId(), parent, "spark.task", tracer.epochToRunMs(t.launch),
          tracer.epochToRunMs(t.finish), t.attrs))
      }
    }
    jobs.clear(); stages.clear(); tasks.clear()
  }
}

object SparkTrace {
  val SpanProperty = "chlbench.span"
  private val DrainMarker = "drain"

  private final case class Job(id: Int, callSpan: Int, start: Long, stageIds: Seq[Int], var end: Long = -1)
  private final case class Task(stage: Int, attempt: Int, launch: Long, finish: Long, attrs: Map[String, Double])
}

/** The span file: one JSON object per line, in span id order. */
object SpanFile {

  def write(file: File, spans: Seq[Span]): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      val attrs = s.attrs.map { case (k, v) => s""""$k":${num(v)}""" }.mkString(",")
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ms":${num(s.startMs)},"end_ms":${num(s.endMs)},"attrs":{$attrs}}""")
    } finally out.close()
  }

  def read(file: File): Seq[Span] = {
    val mapper = new com.fasterxml.jackson.databind.ObjectMapper()
    val src = scala.io.Source.fromFile(file, "UTF-8")
    try src.getLines().filter(_.nonEmpty).map { line =>
      val j = mapper.readTree(line)
      val attrs = j.get("attrs").properties().asScala.map(e => e.getKey -> e.getValue.asDouble()).toMap
      Span(j.get("id").asInt(), j.get("parent").asInt(), j.get("name").asText(),
        j.get("start_ms").asDouble(), j.get("end_ms").asDouble(), attrs)
    }.toVector
    finally src.close()
  }

  /** A finite JSON number. */
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}
