package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.Table4

/** spark-submit entrypoint reproducing Table 4 (query modes on q=16).
  * Usage: Table4QueryModes [scale] [q] [batch]
  */
object Table4QueryModes {
  def main(args: Array[String]): Unit = {
    val scale = if (args.length > 0) args(0).toDouble else 1.0
    val q     = if (args.length > 1) args(1).toInt else 16
    val batch = if (args.length > 2) args(2).toInt else 200000
    val spark = SparkSession.builder().appName("table4")
      .master(sys.props.getOrElse("spark.master", "local[*]")).getOrCreate()
    try {
      println(s"== Table 4 (scale=$scale q=$q batch=$batch) ==")
      val rows = Table4.run(spark, scale, q, batch,
        threads = Runtime.getRuntime.availableProcessors())
      println(Table4.format(rows))
    } finally spark.stop()
  }
}
