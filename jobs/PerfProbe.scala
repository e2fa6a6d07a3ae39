package repro.jobs

import repro.core.GLL
import repro.harness.Datasets

/** Developer probe: GLL construct/clean/commit breakdown per dataset.
  * Usage: PerfProbe [dataset] [scale] [alpha]
  */
object PerfProbe {
  def main(args: Array[String]): Unit = {
    val name  = if (args.length > 0) args(0) else "usa-lite"
    val scale = if (args.length > 1) args(1).toDouble else 1.0
    val alpha = if (args.length > 2) args(2).toDouble else 4.0
    val spec  = Datasets.byName(name)
    val g     = spec.graph(scale)
    val rank  = spec.ranking(g)
    val threads = Runtime.getRuntime.availableProcessors()
    val res = GLL.run(g, rank, threads, alpha)
    println(s"$name n=${g.n} m=${g.m} alpha=$alpha: total=${res.timeMs}ms " +
      s"construct=${res.constructMs}ms clean=${res.cleanMs}ms (commit=${res.commitMs}ms) " +
      s"supersteps=${res.supersteps} labels=${res.labeling.labelCount} " +
      s"generated=${res.labelsGenerated} removed=${res.redundantRemoved}")
    val lcc = GLL.runLCC(g, rank, threads)
    println(s"$name LCC: total=${lcc.timeMs}ms construct=${lcc.constructMs}ms " +
      s"clean=${lcc.cleanMs}ms (commit=${lcc.commitMs}ms) " +
      s"generated=${lcc.labelsGenerated} removed=${lcc.redundantRemoved}")
  }
}
