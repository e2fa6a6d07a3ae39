package repro.dist

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{CsrGraph, Ranking}

/** Distributed GLL (§5.1) and the DparaPLL baseline.
  *
  * The rank-ordered root queue is split circularly over `q` simulated
  * nodes. Supersteps grow geometrically by `beta` (the experiments
  * synchronize `log_beta(n)` times); at each synchronization the labels
  * generated in the superstep are broadcast to all nodes (metered), every
  * node answers the cleaning queries it can decide — a witness hub's
  * labels for both endpoints live on the hub's owner — and the redundancy
  * bitvectors are OR-allreduced. Each superstep is one Spark job: the
  * cleaning of superstep `s` runs in the job that builds `s + 1` ([[node]]),
  * and one final job cleans the last. The supersteps are
  * [[Hybrid.build]]'s DGLL phase, started at the first root.
  */
object DGLL {

  val DefaultBeta = 8

  def run(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int,
          beta: Int = DefaultBeta): (Labeling, DistStats) = {
    require(beta >= 2, s"superstep growth beta must be at least 2, got $beta")
    Hybrid.build(spark, g, rank, q, dgllOnly = true, beta = beta)
  }

  /** DparaPLL: the same supersteps with no rank pruning and no cleaning,
    * every exchanged label kept and replicated on every node.
    */
  def runParaPLL(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int): (Labeling, DistStats) =
    Hybrid.build(spark, g, rank, q, dgllOnly = true, paraPLL = true)

  /** Geometrically growing superstep sizes covering `total` roots. */
  private[dist] def superstepSizes(total: Int, beta: Int): Seq[Int] = {
    if (total <= 0) return Nil
    val steps = math.max(1, math.ceil(math.log(math.max(2.0, total.toDouble)) / math.log(beta.toDouble)).toInt)
    val denom = (math.pow(beta.toDouble, steps.toDouble) - 1) / (beta - 1)
    val s0    = math.max(1.0, total / denom)
    (0 until steps).map(k => math.max(1, math.round(s0 * math.pow(beta.toDouble, k.toDouble)).toInt))
  }

  /** Node `pid`'s part of the DGLL round that builds superstep `s + 1` and
    * cleans superstep `s` (§5.1; DESIGN.md §4 gives the order). `prev` is
    * `s`'s candidates, the nodes' blocks merged into one CSR, and null in
    * the first superstep and in DparaPLL. The node indexes its planted
    * block `prior` once per round and adds the candidates of `s` whose hub
    * it owns. With these witnesses (their labels for both endpoints live
    * here) it marks the candidates of `s` it can prove redundant, vertex by
    * vertex ([[Cleaning.markVertex]]). Witnesses lie in `prior` and the
    * candidates of `s` only: were a hub `w` of an earlier superstep one for
    * `(v, h, δ)`, `w`'s labels for `h` and `v` would be in `global`, as
    * survivors or as uncleaned candidates of `s − 1`, and `h`'s tree, which
    * consulted it, would not have emitted `v` at `δ`.
    *
    * The node's trees of `s + 1` then prune with `global`, which holds the
    * survivors through `s − 1` and every candidate of `s`, uncleaned; its
    * own table, which they grow; and the Common Label Table `hc` (null if
    * none). An uncleaned candidate is still the length of a real path
    * through a hub that outranks the root, so pruning with it drops only
    * non-canonical labels, as GLL's trees prune with their superstep's
    * uncleaned local table. The final cleaning round builds no tree and
    * passes a null `global`.
    *
    * @return the CSR indices of `prev` the node marked, and its trees
    */
  private[dist] def node(g: CsrGraph, rank: Ranking, q: Int, pid: Int, prior: NodeLabels, prev: Labeling,
                         global: LabelBuffers, hc: LabelBuffers,
                         rankQueries: Boolean): (Array[Int], SimCluster.Trees) = {
    val n       = g.n
    val own     = NodeLabels.merge(Array(prior), n)
    val scratch = new DijkstraScratch(n)
    val marked  = new mutable.ArrayBuilder.ofInt
    if (prev != null) {
      for (v <- 0 until n; k <- prev.offsets(v) until prev.offsets(v + 1) if prev.hubPos(k) % q == pid)
        own.add(v, prev.hubPos(k), prev.hubDist(k))
      for (v <- 0 until n) Cleaning.markVertex(v, prev, own, scratch, marked)
    }
    val tables  = if (hc != null) Array(global, own, hc) else Array(global, own)
    (marked.result(), (p, sink) => PrunedDijkstra.buildTree(g, rank, rank.order(p), tables, rankQueries, scratch,
      sink = (v, d) => { own.add(v, p, d); sink(v, d) }))
  }
}
