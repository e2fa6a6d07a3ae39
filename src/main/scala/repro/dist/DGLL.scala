package repro.dist

import org.apache.spark.broadcast.Broadcast
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
  * bitvectors are OR-allreduced. The supersteps are [[Hybrid.build]]'s
  * DGLL phase, started at the first root.
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
    val sizes = (0 until steps).map(k => math.max(1, math.round(s0 * math.pow(beta.toDouble, k.toDouble)).toInt))
    sizes
  }

  /** Distributed cleaning (§5.1): broadcast the superstep's candidate
    * labels; each node marks the candidates it can prove redundant using
    * witness hubs *it owns* (their labels for both endpoints live here);
    * OR-allreduce the bitvectors, one per candidate block, as the indices
    * each node marked. Witnesses lie in `prior` and the candidates only:
    * were an earlier superstep's hub `w` one for `(v, h, δ)`, `w` would be
    * in `global(h)` and `global(v)`, and `h`'s tree would not have emitted
    * `v` at `δ`.
    */
  private[dist] def cleanCandidates(
      spark: SparkSession,
      bcPrior: Broadcast[Array[NodeLabels]],
      bcRank: Broadcast[Ranking],
      candidates: Array[NodeLabels],
  ): Array[Array[Boolean]] = {
    val sc     = spark.sparkContext
    val bcCand = sc.broadcast(candidates)
    val marked = sc.parallelize(candidates.indices, candidates.length)
      .mapPartitionsWithIndex { (pid, _) =>
        val rk   = bcRank.value
        val cand = bcCand.value
        // per-vertex lists of this node's candidate witnesses: its prior
        // labels, then this superstep's candidates generated here
        val lab = bcPrior.value(pid).index(rk.n)
        lab.appendRuns(Array(cand(pid)), null)
        val scratch = new DijkstraScratch(rk.n)
        Iterator.single(cand.map { c =>
          val m = new Array[Boolean](c.size)
          var i = 0
          while (i < c.size) i = Cleaning.markRun(c, i, c.h(i), lab, rk, scratch, m)
          val ix = new scala.collection.mutable.ArrayBuilder.ofInt
          i = 0
          while (i < c.size) { if (m(i)) ix += i; i += 1 }
          ix.result()
        })
      }
      .collect()
    bcCand.destroy()
    val marks = candidates.map(c => new Array[Boolean](c.size))
    for (node <- marked; k <- node.indices; i <- node(k)) marks(k)(i) = true
    marks
  }
}
