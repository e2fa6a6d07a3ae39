package chlbench

import java.io.File

/** Runs one workload and prints its metrics; the last stdout line is the
  * JSON result.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val w       = Workload.byName(opt("workload"))
    val seed    = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace   = opt("trace") match { case "0" => false; case "1" => true; case t => usage(s"bad --trace $t") }
    val outDir  = new File(opt("out"))

    val bench = new Bench(w, seed, seconds, trace, outDir)
    try bench.run()
    catch { case e: Throwable => e.printStackTrace(); sys.exit(1) }
    val spans = bench.tracer.spans

    val (metrics, defs) =
      if (trace) {
        val file = new File(outDir, s"spans-${w.name}-seed$seed.jsonl")
        SpanFile.write(file, spans)
        Console.err.println(s"[chlbench] wrote ${spans.length} spans to $file")
        val m = new Metrics(SpanFile.read(file)).perLayer
        (m, m.keys.toSeq.sorted.map(Metrics.layer))
      } else (new Metrics(spans).endToEnd(w), Metrics.EndToEnd)

    println(s"chlbench workload=${w.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0} " +
      s"reps=${bench.reps} attempted=${bench.attempted} failed=${bench.failed}")
    defs.foreach(d => println(f"  ${d.name}%-40s ${metrics(d.name)}%18.6f ${d.unit}"))
    val json = defs.map(d =>
      s""""${d.name}":{"value":${SpanFile.num(metrics(d.name))},"unit":"${d.unit}"}""")
    println(s"""{"correct":${bench.failed == 0 && bench.attempted > 0},"attempted":${bench.attempted},""" +
      s""""failed":${bench.failed},"metrics":{${json.mkString(",")}}}""")
    System.exit(0)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"chlbench: $msg\nusage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>")
    sys.exit(2)
  }
}
