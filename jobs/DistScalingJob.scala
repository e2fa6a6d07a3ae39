package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Datasets, DistScaling}

/** spark-submit entrypoint for the supplemental distributed-scaling sweep
  * (fig. 8/9 claims). Usage: DistScalingJob [scale] [qList csv] [psiTh]
  */
object DistScalingJob {
  def main(args: Array[String]): Unit = {
    val scale = if (args.length > 0) args(0).toDouble else 0.5
    val qs    = if (args.length > 1) args(1).split(",").map(_.toInt).toSeq else Seq(1, 2, 4, 8)
    val psiTh = if (args.length > 2) args(2).toDouble else 100.0
    val spark = SparkSession.builder().appName("dist-scaling")
      .master(sys.props.getOrElse("spark.master", "local[*]")).getOrCreate()
    try {
      println(s"== Distributed scaling (scale=$scale qs=${qs.mkString(",")}) ==")
      val rows = Datasets.scalingSubset.map(n =>
        DistScaling.runOne(spark, Datasets.byName(n), scale, qs, psiTh))
      println(DistScaling.format(rows))
    } finally spark.stop()
  }
}
