package repro

import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  import SparkSpec.TaggedJobs

  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The Spark jobs `body` submits, and the tasks of their stages. */
  def jobsOf(tag: String)(body: => Unit): TaggedJobs = {
    val sc = spark.sparkContext
    val jobs = new TaggedJobs(tag)
    sc.addSparkListener(jobs)
    try {
      sc.setLocalProperty(TaggedJobs.Tag, tag)
      body
      // the bus delivers in order: once a later job's start is seen, so
      // is every event of the body's jobs
      sc.setLocalProperty(TaggedJobs.Tag, s"$tag-drain")
      sc.parallelize(Seq(0), 1).count()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!jobs.drained && System.nanoTime() < deadline) Thread.sleep(5)
      assert(jobs.drained, "listener bus did not drain within 30 s")
    } finally { sc.setLocalProperty(TaggedJobs.Tag, null); sc.removeSparkListener(jobs) }
    jobs
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Records the Spark jobs submitted while the local property `Tag` is
    * `tag`, and the tasks of their stages.
    */
  final class TaggedJobs(tag: String) extends SparkListener {
    val jobStages = new java.util.concurrent.ConcurrentHashMap[Int, Seq[Int]]()
    val tasks = new java.util.concurrent.atomic.AtomicInteger
    @volatile var drained = false
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val t = Option(e.properties).map(_.getProperty(TaggedJobs.Tag)).orNull
      if (t == tag) jobStages.put(e.jobId, e.stageIds)
      else if (t == s"$tag-drain") drained = true
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (jobStages.values.asScala.exists(_.contains(e.stageId))) tasks.incrementAndGet()
  }
  object TaggedJobs { val Tag = "repro.test.tag" }
}
