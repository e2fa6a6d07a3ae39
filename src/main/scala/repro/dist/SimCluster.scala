package repro.dist

import org.apache.spark.SparkContext
import repro.core.{LabelBuffers, Labeling, NodeLabels}
import repro.graph.Ranking

/** The multi-node cluster substrate (DESIGN.md §3/§4).
  *
  * A cluster of `q` nodes is simulated by Spark jobs of `q` tasks: task `i`
  * is node `i`. Every job has one shape, [[round]]: node `i` builds the
  * trees of the roots it owns (`owner(h) = h mod q` for the hub at rank
  * position `h`, the paper's circular task split) and returns its block to
  * the driver. The driver keeps node `i`'s planted labels as block `i` of an
  * array; a DGLL phase's labels, broadcast to every node, are kept once, in
  * the driver's table. Broadcasts are `sc.broadcast`, allreduce is a
  * gather to the driver, and communication volume is metered in bytes by
  * the driver using the paper's 12-byte-per-label accounting.
  */
object SimCluster {

  /** One job over the nodes. Task `pid` calls `node(pid)` once, then the
    * function it returns on each root position `p ≡ pid (mod q)` in
    * `[a, b)`, ascending, with a sink for the tree's labels `(v, d)`; that
    * function returns the vertices its tree explored. Returns each node's
    * labels, one contiguous run per root in root order, and each node's
    * explored count, both in node order. The collect is simulation
    * plumbing: the modelled traffic is metered by the callers.
    */
  def round(sc: SparkContext, q: Int, a: Int, b: Int)(
      node: Int => (Int, (Int, Long) => Unit) => Long): (Array[NodeLabels], Array[Long]) =
    sc.parallelize(0 until q, q).mapPartitionsWithIndex { (pid, _) =>
      val tree = node(pid)
      val out  = new NodeLabels.Builder
      var explored = 0L
      var p = a + Math.floorMod(pid - a, q)
      while (p < b) {
        val pos = p
        explored += tree(pos, (v, d) => out.add(v, pos, d))
        p += q
      }
      Iterator.single((out.result(), explored))
    }.collect().unzip

  /** Joins the planted `blocks` (block `i` is node `i`'s) and `global` (a
    * DGLL phase's labels) and assembles the run's labeling and stats. Node
    * `i` stores its block and the labels of `global` whose hub it owns;
    * DparaPLL (`replicate`) keeps every label on every node.
    */
  def finish(
      blocks: Array[NodeLabels],
      global: LabelBuffers,
      rank: Ranking,
      acc: StatsAccum,
      t0: Long,
      replicate: Boolean = false,
      switchPos: Int = -1,
      commonTableLabels: Long = 0,
  ): (Labeling, DistStats) = {
    val perNode = blocks.map(_.size.toLong)
    // each list takes the planted labels first: they outrank every hub of a
    // later DGLL phase
    val all = new LabelBuffers(global.n, threadSafe = false)
    all.appendRuns(blocks, null, 0, all.n)
    for (v <- 0 until global.n) {
      val b = global.bufs(v)
      (0 until b.size).foreach { i => perNode(b.hubs(i) % blocks.length) += 1; all.add(v, b.hubs(i), b.dists(i)) }
    }
    val labeling = all.toLabeling(rank)
    (labeling, DistStats(
      timeMs = (System.nanoTime() - t0) / 1000000,
      syncs = acc.syncs,
      labelsGenerated = acc.labelsGenerated,
      labelsFinal = labeling.labelCount,
      redundantRemoved = acc.redundantRemoved,
      bytesBroadcast = acc.bytesBroadcast,
      bytesAllReduce = acc.bytesAllReduce,
      explored = acc.explored,
      perNodeLabels = if (replicate) perNode.map(_ => labeling.labelCount) else perNode,
      switchPos = switchPos,
      commonTableLabels = commonTableLabels))
  }

  /** Mutable driver-side tally of the simulated cluster's behaviour. */
  final class StatsAccum {
    var syncs: Int              = 0
    var labelsGenerated: Long   = 0 // pre-clean
    var redundantRemoved: Long  = 0
    var bytesBroadcast: Long    = 0 // label exchange + common-table traffic
    var bytesAllReduce: Long    = 0 // cleaning bitvectors
    var explored: Long          = 0 // vertices settled across all SPTs

    /** One superstep's label exchange: every node receives all labels it
      * did not generate (`size * 12 * (q-1)` bytes), plus for cleaning two
      * bitvector movements per node.
      */
    def recordExchange(labels: Long, q: Int, cleaned: Boolean): Unit = {
      bytesBroadcast += labels * repro.core.Labeling.BytesPerLabel * math.max(0, q - 1)
      if (cleaned) bytesAllReduce += ((labels + 7) / 8) * 2 * q
      syncs += 1
    }

    def recordCommonTableBroadcast(labels: Long, q: Int): Unit =
      bytesBroadcast += labels * repro.core.Labeling.BytesPerLabel * math.max(0, q - 1)
  }
}

/** Result of a distributed labeling run. */
final case class DistStats(
    timeMs: Long,
    syncs: Int,
    labelsGenerated: Long,
    labelsFinal: Long,
    redundantRemoved: Long,
    bytesBroadcast: Long,
    bytesAllReduce: Long,
    explored: Long,
    perNodeLabels: Array[Long],
    switchPos: Int = -1, // Hybrid: rank position of the PLaNT→DGLL switch
    commonTableLabels: Long = 0, // Hybrid: labels in the final common table
)
