package repro.harness

import org.apache.spark.sql.SparkSession

/** What every table's `main`, `sbt "runMain repro.harness.<table> [scale]"`,
  * shares: a Spark session (local unless `spark.master` names a cluster)
  * and exit status 1 when a paper-shape rule is violated.
  */
private[harness] object TableMain {

  def withSpark[A](app: String)(body: SparkSession => A): A = {
    val spark = SparkSession.builder().appName(app)
      .master(sys.props.getOrElse("spark.master", "local[*]")).getOrCreate()
    try body(spark) finally spark.stop()
  }

  /** The scale `args(0)`, or `default`. A scale that is not a finite
    * number above 0 would print clamped minimum graphs under it: rejected.
    */
  def scale(args: Array[String], default: Double): Double =
    args.headOption.fold(default) { a =>
      a.toDoubleOption.filter(s => s > 0 && s < Double.PositiveInfinity).getOrElse(
        throw new IllegalArgumentException(s"scale must be a finite number above 0, got '$a'"))
    }

  def failed(rules: (Boolean, String)*): Seq[String] = rules.collect { case (false, msg) => msg }

  def report[R](title: String, rows: Seq[R])(format: Seq[R] => String, check: Seq[R] => Seq[String]): Unit = {
    val violations = check(rows)
    println((s"== $title ==\n${format(rows)}" +: violations.map("CHECK FAILED: " + _)).mkString("\n"))
    if (violations.nonEmpty) sys.exit(1)
  }
}
