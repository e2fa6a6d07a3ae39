package repro.dist

import org.apache.spark.sql.SparkSession
import repro.core.{DijkstraScratch, LabelBuffers, Labeling}
import repro.graph.{CsrGraph, Ranking}

/** PLaNT (§5.2) and the Hybrid PLaNT→DGLL algorithm (§5.2.1).
  *
  * Phase 1 plants trees batch-by-batch over the rank-ordered root queue —
  * an embarrassingly parallel `mapPartitions` over the circularly split
  * queue with **no** label traffic (the only broadcast is the optional
  * Common Label Table of the η top hubs). After each batch the driver
  * evaluates Ψ = vertices-explored / labels-generated; once Ψ exceeds
  * `psiTh` the run switches to DGLL supersteps (phase 2), which prune with
  * rank queries + the common table + post-switch exchanged labels, and
  * clean against the superstep's candidates and the pre-switch PLaNT store.
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
    val sc  = spark.sparkContext
    val n   = g.n
    val t0  = System.nanoTime()
    val acc = new SimCluster.StatsAccum
    // batch granularity trades Ψ-sampling resolution against per-batch job
    // overhead; n/16 keeps the switch decision responsive at our scales
    val batch  = if (batchSize > 0) batchSize else math.max(4 * q, n / 16)
    val etaEff = math.min(eta, n)

    val bcGraph = sc.broadcast(g)
    val bcRank  = sc.broadcast(rank)
    val exploredAcc = sc.longAccumulator("plantExplored")

    var owned: SimCluster.OwnedLabels = SimCluster.emptyLabels(sc, q)
    // Common Label Table: the labels of the top-η hubs planted so far. It
    // only ever holds hubs of finished batches, which all outrank every
    // later root, so a later tree may prune with it (§5.3).
    val hc = if (etaEff > 0) new LabelBuffers(n, threadSafe = false) else null
    var pos       = 0
    var switchPos = -1
    var lastExplored = 0L

    while (pos < n && switchPos < 0) {
      val a = pos
      val b = math.min(n, a + batch)
      pos = b
      val bcHc = if (hc != null) sc.broadcast(hc) else null
      // node `pid` plants the batch's roots it owns: positions p ≡ pid (mod q)
      val fresh = sc.parallelize(0 until q, q).mapPartitionsWithIndex { (pid, _) =>
        val gg = bcGraph.value; val rk = bcRank.value
        val hct = if (bcHc != null) bcHc.value else null
        val scratch = new DijkstraScratch(gg.n)
        val out = new NodeLabels.Builder
        var explored = 0L
        var p = a + Math.floorMod(pid - a, q)
        while (p < b) {
          val pos = p
          explored += PlantTree.build(gg, rk, rk.order(pos), hct, scratch, sink = (v, d) => out.add(v, pos, d))
          p += q
        }
        exploredAcc.add(explored)
        Iterator.single(out.result())
      }
      fresh.persist()
      // per node: labels planted, and those of top-η hubs for the common table
      val planted = fresh.map(nl => (nl.size.toLong, nl.select(nl.h(_) < etaEff))).collect()
      val labelsThisBatch = planted.map(_._1).sum
      acc.labelsGenerated += labelsThisBatch
      val exploredThisBatch = exploredAcc.value - lastExplored
      lastExplored = exploredAcc.value

      owned = SimCluster.appendLabels(owned, fresh)
      fresh.unpersist(blocking = false)
      if (bcHc != null) bcHc.destroy()
      // Grow the table only now that the new store is materialized: a
      // recomputed task of this batch would otherwise see its own roots'
      // rows, and a root in the table prunes every vertex of its tree.
      val hcNew = NodeLabels.concat(planted.map(_._2).toSeq)
      if (hcNew.size > 0) {
        hcNew.addTo(hc)
        acc.recordCommonTableBroadcast(hcNew.size.toLong, q)
      }

      val psi = exploredThisBatch.toDouble / math.max(1L, labelsThisBatch)
      if (psi > psiTh && pos < n) switchPos = pos
    }
    acc.explored = lastExplored

    val global =
      if (switchPos < 0) new LabelBuffers(n, threadSafe = false)
      else DGLL.runSupersteps(spark, bcGraph, bcRank, q, DGLL.DefaultBeta,
        paraPLL = false, hc = hc, startPos = switchPos, prior = owned, acc = acc)
    bcGraph.destroy(); bcRank.destroy()
    SimCluster.finish(owned, global, rank, acc, t0, switchPos = switchPos,
      commonTableLabels = if (hc != null) hc.labelCount else 0)
  }
}
