package repro.dist

import org.apache.spark.SparkContext
import repro.core.NodeLabels

/** The multi-node cluster substrate (DESIGN.md §3/§4).
  *
  * A cluster of `q` nodes is simulated by Spark jobs of `q` tasks: task `i`
  * is node `i`. Every job has one shape, [[round]]: node `i` builds the
  * trees of the roots it owns (`owner(h) = h mod q` for the hub at rank
  * position `h`, the paper's circular task split) and returns its block to
  * the driver. The one driver, [[Hybrid.build]], keeps node `i`'s planted
  * labels as block `i` of an array; a DGLL phase's labels, broadcast to
  * every node, are kept once, in the driver's table. Broadcasts are
  * `sc.broadcast`, allreduce is a gather to the driver, and communication
  * volume is metered in bytes by the driver, beside each step it meters,
  * using the paper's 12-byte-per-label accounting.
  */
object SimCluster {

  /** One job over the nodes. Task `pid` calls `node(pid)` once, then the
    * function it returns on each root position `p ≡ pid (mod q)` in
    * `[a, b)`, ascending, with a sink for the tree's labels `(v, d)`; that
    * function returns the vertices its tree explored. Returns each node's
    * labels, one contiguous run per root in root order, and each node's
    * explored count, both in node order. The collect is simulation
    * plumbing: the modelled traffic is metered by [[Hybrid.build]].
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
)
