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
    (0 until steps).map(k => math.max(1, math.round(s0 * math.pow(beta.toDouble, k.toDouble)).toInt))
  }

  /** Distributed cleaning (§5.1) of a superstep's candidates `cand`, the
    * nodes' blocks merged into one CSR: broadcast it; each node marks the
    * candidates it can prove redundant using witness hubs *it owns* (their
    * labels for both endpoints live here), vertex by vertex
    * ([[Cleaning.markVertex]]); OR-allreduce the bitvectors, as the CSR
    * indices each node marked. Witnesses lie in `prior` and the candidates
    * only: were an earlier superstep's hub `w` one for `(v, h, δ)`, `w`
    * would be in `global(h)` and `global(v)`, and `h`'s tree would not have
    * emitted `v` at `δ`. Returns the marks, by CSR index.
    */
  private[dist] def cleanCandidates(
      spark: SparkSession,
      bcPrior: Broadcast[Array[NodeLabels]],
      cand: Labeling,
      q: Int,
  ): Array[Boolean] = {
    val sc     = spark.sparkContext
    val bcCand = sc.broadcast(cand)
    val marked = sc.parallelize(0 until q, q)
      .mapPartitionsWithIndex { (pid, _) =>
        val c = bcCand.value
        // per-vertex lists of this node's witnesses: its prior labels, then
        // this superstep's candidates whose hub it owns
        val lab = NodeLabels.merge(Array(bcPrior.value(pid)), c.n)
        for (v <- 0 until c.n; k <- c.offsets(v) until c.offsets(v + 1) if c.hubPos(k) % q == pid)
          lab.add(v, c.hubPos(k), c.hubDist(k))
        val scratch = new DijkstraScratch(c.n)
        val ix = new scala.collection.mutable.ArrayBuilder.ofInt
        for (v <- 0 until c.n) Cleaning.markVertex(v, c, lab, scratch, ix)
        Iterator.single(ix.result())
      }
      .collect()
    bcCand.destroy()
    val marks = new Array[Boolean](cand.hubPos.length)
    for (node <- marked; k <- node) marks(k) = true
    marks
  }
}
