package repro.dist

import org.apache.spark.SparkContext
import repro.core.LabelBuffers

/** The multi-node cluster substrate (DESIGN.md §3/§4).
  *
  * A cluster of `q` nodes is simulated by Spark jobs of `q` tasks: task `i`
  * is node `i`. Every job has one shape, [[round]]: node `i` marks the
  * candidates of the previous DGLL superstep it can prove redundant (none
  * outside a DGLL phase), builds the trees of the roots it owns
  * (`owner(h) = h mod q` for the hub at rank position `h`, the paper's
  * circular task split) and returns its block and its marks to the driver.
  * The one driver, [[Hybrid.build]], keeps node `i`'s planted labels as
  * block `i` of an array; a DGLL phase's labels, broadcast to every node,
  * are kept once, in the driver's table. Broadcasts are `sc.broadcast`,
  * allreduce is a gather to the driver, and communication volume is
  * metered in bytes by the driver, beside each step it meters, using the
  * paper's 12-byte-per-label accounting.
  */
object SimCluster {

  /** A node's trees: called on a root position with a sink for the tree's
    * labels `(v, d)`, it builds that root's tree and returns the vertices
    * the tree explored.
    */
  type Trees = (Int, (Int, Long) => Unit) => Long

  /** One job over the nodes. Task `pid` calls `node(pid)` once; it returns
    * the indices of the previous superstep's candidates the node marked
    * redundant, and the node's trees, which the task then calls on each
    * root position `p ≡ pid (mod q)` in `[a, b)`, ascending. Returns each
    * node's labels (one contiguous run per root, in root order), explored
    * count and marks, in node order. The collect is simulation plumbing:
    * the modelled traffic is metered by [[Hybrid.build]].
    */
  def round(sc: SparkContext, q: Int, a: Int, b: Int)(
      node: Int => (Array[Int], Trees)): (Array[NodeLabels], Array[Long], Array[Array[Int]]) =
    sc.parallelize(0 until q, q).mapPartitionsWithIndex { (pid, _) =>
      val (marked, tree) = node(pid)
      val out  = new NodeLabels.Builder
      var explored = 0L
      var p = a + Math.floorMod(pid - a, q)
      while (p < b) {
        val pos = p
        explored += tree(pos, (v, d) => out.add(v, pos, d))
        p += q
      }
      Iterator.single((out.result(), explored, marked))
    }.collect().unzip3
}

/** The labels of a set of trees, as parallel columns: label `i` says vertex
  * `v(i)` is at distance `d(i)` from the hub at rank position `h(i)`.
  *
  * A node's record of its trees, as [[SimCluster.round]] returns it: one
  * contiguous run of labels per root, roots ascending — the candidates a
  * DGLL node generated in a superstep, or a node's planted batches
  * concatenated in batch order. [[NodeLabels.merge]] turns blocks into
  * per-vertex lists.
  */
final class NodeLabels(val v: Array[Int], val h: Array[Int], val d: Array[Long]) extends Serializable {
  def size: Int = v.length

  /** The labels `i` for which `keep(i)` holds, in column order. */
  def select(keep: Int => Boolean): NodeLabels = {
    val b = new NodeLabels.Builder
    var i = 0
    while (i < size) { if (keep(i)) b.add(v(i), h(i), d(i)); i += 1 }
    b.result()
  }
}

object NodeLabels {
  /** All labels of `blocks`, in order. */
  def concat(blocks: Seq[NodeLabels]): NodeLabels =
    new NodeLabels(Array.concat(blocks.map(_.v): _*), Array.concat(blocks.map(_.h): _*),
      Array.concat(blocks.map(_.d): _*))

  /** Per-vertex lists over `n` vertices of the labels of `blocks`, merged
    * by root: root by root in ascending rank position, the root's run from
    * whichever block holds it, so each list's hubs ascend.
    */
  def merge(blocks: Array[NodeLabels], n: Int): LabelBuffers = {
    val t  = new LabelBuffers(n, threadSafe = false)
    val at = new Array[Int](blocks.length) // each block's next run
    var k = 0
    while (k >= 0) {
      k = -1 // the block whose next run has the lowest root h, if any is left
      var h = Int.MaxValue
      var j = 0
      while (j < blocks.length) {
        if (at(j) < blocks(j).size && blocks(j).h(at(j)) < h) { k = j; h = blocks(j).h(at(j)) }
        j += 1
      }
      if (k >= 0) {
        val b = blocks(k)
        var i = at(k)
        while (i < b.size && b.h(i) == h) { t.add(b.v(i), h, b.d(i)); i += 1 }
        at(k) = i
      }
    }
    t
  }

  /** Growable columns for a tree sink. */
  final class Builder {
    private var v = new Array[Int](16)
    private var h = new Array[Int](16)
    private var d = new Array[Long](16)
    private var len = 0

    def add(vv: Int, hh: Int, dd: Long): Unit = {
      if (len == v.length) {
        v = java.util.Arrays.copyOf(v, len * 2)
        h = java.util.Arrays.copyOf(h, len * 2)
        d = java.util.Arrays.copyOf(d, len * 2)
      }
      v(len) = vv; h(len) = hh; d(len) = dd; len += 1
    }

    def result(): NodeLabels =
      new NodeLabels(java.util.Arrays.copyOf(v, len), java.util.Arrays.copyOf(h, len),
        java.util.Arrays.copyOf(d, len))
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
)
