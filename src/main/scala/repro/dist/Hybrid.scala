package repro.dist

import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import repro.core.{DijkstraScratch, LabelBuffers, Labeling, NodeLabels}
import repro.graph.{CsrGraph, Ranking}

/** PLaNT (§5.2) and the Hybrid PLaNT→DGLL algorithm (§5.2.1).
  *
  * Phase 1 plants trees batch-by-batch over the rank-ordered root queue —
  * one embarrassingly parallel [[SimCluster.round]] per batch over the
  * circularly split queue with **no** label traffic (the only broadcast is
  * the optional Common Label Table of the η top hubs). After each batch the
  * driver evaluates Ψ = vertices-explored / labels-generated; once Ψ exceeds
  * `psiTh` the run switches to DGLL supersteps (phase 2), which prune with
  * rank queries + the common table + post-switch exchanged labels, and
  * clean against the superstep's candidates and the pre-switch PLaNT blocks.
  *
  * `psiTh = ∞, eta = 0` is pure PLaNT ([[Plant.run]]).
  */
object Hybrid {

  def run(
      spark: SparkSession,
      g: CsrGraph,
      rank: Ranking,
      q: Int,
      psiTh: Double = 100.0,
      eta: Int = 16,
      batchSize: Int = 0,
  ): (Labeling, DistStats) = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    require(!psiTh.isNaN, "switching threshold psiTh must be a number, got NaN")
    require(eta >= 0, s"common table size eta must not be negative, got $eta")
    require(batchSize >= 0, s"batch size must not be negative (0: default), got $batchSize")
    val sc  = spark.sparkContext
    val n   = g.n
    val t0  = System.nanoTime()
    val acc = new SimCluster.StatsAccum
    // batch granularity is Ψ-sampling resolution: n/16 keeps the switch
    // decision responsive at our scales
    val batch  = if (batchSize > 0) batchSize else math.max(4 * q, n / 16)
    val etaEff = math.min(eta, n)

    val bcGraph = sc.broadcast(g)
    val bcRank  = sc.broadcast(rank)

    // each batch's blocks, node i's at index i
    val batches = ArrayBuffer.empty[Array[NodeLabels]]
    // Common Label Table: the labels of the top-η hubs planted so far. It
    // only ever holds hubs of finished batches, which all outrank every
    // later root, so a later tree may prune with it (§5.3).
    val hc = if (etaEff > 0) new LabelBuffers(n, threadSafe = false) else null
    var pos       = 0
    var switchPos = -1

    while (pos < n && switchPos < 0) {
      val a = pos
      val b = math.min(n, a + batch)
      pos = b
      val bcHc = if (hc != null) sc.broadcast(hc) else null
      val (fresh, explored) = SimCluster.round(sc, q, a, b) { _ =>
        val gg = bcGraph.value; val rk = bcRank.value
        val hct = if (bcHc != null) bcHc.value else null
        val scratch = new DijkstraScratch(gg.n)
        (p, sink) => PlantTree.build(gg, rk, rk.order(p), hct, scratch, sink)
      }
      if (bcHc != null) bcHc.destroy()
      batches += fresh
      val labelsThisBatch   = fresh.map(_.size.toLong).sum
      val exploredThisBatch = explored.sum
      acc.labelsGenerated += labelsThisBatch
      acc.explored += exploredThisBatch

      if (hc != null) {
        val hcNew = fresh.map(nl => nl.select(nl.h(_) < etaEff))
        hc.appendRuns(hcNew, null, 0, n)
        acc.recordCommonTableBroadcast(hcNew.map(_.size.toLong).sum, q)
      }

      val psi = exploredThisBatch.toDouble / math.max(1L, labelsThisBatch)
      if (psi > psiTh && pos < n) switchPos = pos
    }
    val blocks = Array.tabulate(q)(i => NodeLabels.concat(batches.map(_(i)).toSeq))

    val global =
      if (switchPos < 0) new LabelBuffers(n, threadSafe = false)
      else DGLL.runSupersteps(spark, bcGraph, bcRank, q, DGLL.DefaultBeta,
        paraPLL = false, hc = hc, startPos = switchPos, prior = blocks, acc = acc)
    bcGraph.destroy(); bcRank.destroy()
    SimCluster.finish(blocks, global, rank, acc, t0, switchPos = switchPos,
      commonTableLabels = if (hc != null) hc.labelCount else 0)
  }
}
