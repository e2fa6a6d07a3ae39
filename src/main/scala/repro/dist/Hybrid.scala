package repro.dist

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import repro.core._
import repro.graph.{CsrGraph, Ranking}

/** The Hybrid PLaNT→DGLL algorithm (§5.2.1), and the one driver that runs
  * every distributed build.
  *
  * Phase 1 plants trees batch-by-batch over the rank-ordered root queue —
  * one embarrassingly parallel [[SimCluster.round]] per batch over the
  * circularly split queue with **no** label traffic. The first batch holds
  * at least the η top hubs, so the Common Label Table (§5.3) is built from
  * it and broadcast once. After each batch the driver evaluates Ψ =
  * vertices-explored / labels-generated; once Ψ exceeds `psiTh` the run
  * switches to DGLL supersteps (phase 2, §5.1), which prune with rank
  * queries + the common table + post-switch exchanged labels, and clean
  * against the superstep's candidates and the pre-switch PLaNT blocks.
  *
  * PLaNT ([[Plant.run]]) is a Hybrid that never switches (`psiTh = ∞,
  * eta = 0`), DGLL ([[DGLL.run]]) and DparaPLL one that starts in phase 2.
  */
object Hybrid {

  def run(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int,
          psiTh: Double = 100.0, eta: Int = 16): (Labeling, DistStats) = {
    require(!psiTh.isNaN, "switching threshold psiTh must be a number, got NaN")
    require(eta >= 0, s"common table size eta must not be negative, got $eta")
    build(spark, g, rank, q, psiTh, eta)
  }

  /** Runs a PLaNT phase of batches, unless `dgllOnly`, then DGLL supersteps
    * growing by `beta` over the roots left, and assembles the labeling.
    *
    * @param dgllOnly  start in the DGLL phase, at the first root
    * @param paraPLL   DparaPLL's supersteps: no rank queries and no
    *                  cleaning, every label kept on every node
    */
  private[dist] def build(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int,
                          psiTh: Double = Double.PositiveInfinity, eta: Int = 0, dgllOnly: Boolean = false,
                          beta: Int = DGLL.DefaultBeta, paraPLL: Boolean = false): (Labeling, DistStats) = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    require(rank.n == g.n, s"ranking of ${rank.n} vertices for a graph of ${g.n}")
    val sc = spark.sparkContext
    val n  = g.n
    val t0 = System.nanoTime()
    // bytes of one label sent to every other node, by the paper's 12 B/label
    val replicaBytes = Labeling.BytesPerLabel * (q - 1)
    var syncs = 0
    var labelsGenerated, explored, redundantRemoved, bytesBroadcast, bytesAllReduce = 0L

    val bcGraph = sc.broadcast(g)
    val bcRank  = sc.broadcast(rank)

    val etaEff = math.min(eta, n)
    // batch granularity is Ψ-sampling resolution: n/16 keeps the switch
    // decision responsive at our scales. A run that reads neither Ψ nor the
    // table plants in one batch.
    val batch =
      if (psiTh == Double.PositiveInfinity && etaEff == 0) math.max(1, n)
      else math.max(math.max(4 * q, n / 16), etaEff)
    // each batch's blocks, node i's at index i
    val batches = ArrayBuffer.empty[Array[NodeLabels]]
    // Common Label Table: the labels of the top-η hubs, from the first batch
    var bcHc: Broadcast[LabelBuffers] = null
    var pos       = 0
    var switchPos = -1

    while (!dgllOnly && pos < n && switchPos < 0) {
      val a = pos
      val b = math.min(n, a + batch)
      pos = b
      val hcNow = bcHc
      val (fresh, exploredBy) = SimCluster.round(sc, q, a, b) { _ =>
        val gg = bcGraph.value; val rk = bcRank.value
        val hct = if (hcNow != null) hcNow.value else null
        val scratch = new DijkstraScratch(gg.n)
        (p, sink) => PlantTree.build(gg, rk, rk.order(p), hct, scratch, sink)
      }
      batches += fresh
      val labels = fresh.map(_.size.toLong).sum
      val exploredHere = exploredBy.sum
      labelsGenerated += labels
      explored += exploredHere

      // the first batch planted every top-η hub, and they outrank every
      // later root, so a later tree may prune with their labels (§5.3);
      // every node receives the table
      if (a == 0 && etaEff > 0) {
        val hc = NodeLabels.merge(fresh.map(nl => nl.select(nl.h(_) < etaEff)), n)
        bytesBroadcast += hc.labelCount * replicaBytes
        bcHc = sc.broadcast(hc)
      }

      val psi = exploredHere.toDouble / math.max(1L, labels)
      if (psi > psiTh && pos < n) switchPos = pos
    }
    // node i's planted labels, block i
    val blocks = Array.tabulate(q)(i => NodeLabels.concat(batches.map(_(i)).toSeq))

    // The DGLL phase, over the roots [pos, n). `global` holds its labels
    // once; every node receives them to prune with. The planted blocks were
    // never exchanged: node i indexes only its own, `bcPrior.value(i)`, into
    // its table each superstep (the array is broadcast once: simulation
    // plumbing, not metered). Each superstep's roots rank below all earlier
    // ones, so committing appends to lists sorted by hub position. The driver
    // appends only after the superstep's jobs and `bcGlobal.destroy()`, so no
    // task reads `global` while it grows (in local mode tasks share the
    // driver's instance).
    val global = new LabelBuffers(n, threadSafe = false)
    if (pos < n) {
      val bcPrior = sc.broadcast(blocks)
      val hcNow   = bcHc
      val sizes   = DGLL.superstepSizes(n - pos, beta).iterator
      while (pos < n) {
        val size = if (sizes.hasNext) sizes.next() else n - pos
        val a = pos
        val b = math.min(n, a + size)
        pos = b

        val bcGlobal = sc.broadcast(global)
        // candidates(i): the labels node i generated, in root order; the
        // collect is the superstep's label exchange (metered below)
        val (candidates, exploredBy) = SimCluster.round(sc, q, a, b) { pid =>
          val gg = bcGraph.value; val rk = bcRank.value
          // grown by this superstep's trees, whose roots rank below the block's
          val own = NodeLabels.merge(Array(bcPrior.value(pid)), gg.n)
          val tables =
            if (hcNow != null) Array(bcGlobal.value, own, hcNow.value) else Array(bcGlobal.value, own)
          val scratch = new DijkstraScratch(gg.n)
          (p, sink) => PrunedDijkstra.buildTree(gg, rk, rk.order(p), tables, rankQueries = !paraPLL,
            scratch, sink = (v, d) => { own.add(v, p, d); sink(v, d) })
        }
        bcGlobal.destroy()
        val labels = candidates.map(_.size.toLong).sum
        labelsGenerated += labels
        explored += exploredBy.sum
        // the exchange: every node receives the labels it did not generate,
        // and cleaning moves two bitvectors per node
        bytesBroadcast += labels * replicaBytes
        if (!paraPLL) bytesAllReduce += (labels + 7) / 8 * 2 * q
        syncs += 1

        // the candidates as one CSR: each vertex's hubs ascend, below every
        // hub in `global`, so a commit in CSR order keeps `global` sorted
        val cand  = NodeLabels.merge(candidates, n).toLabeling(rank)
        val marks = if (paraPLL || labels == 0) null else DGLL.cleanCandidates(spark, bcPrior, cand, q)
        for (v <- 0 until n; k <- cand.offsets(v) until cand.offsets(v + 1))
          if (marks != null && marks(k)) redundantRemoved += 1
          else global.add(v, cand.hubPos(k), cand.hubDist(k))
      }
      bcPrior.destroy()
    }
    if (bcHc != null) bcHc.destroy()
    bcGraph.destroy(); bcRank.destroy()

    // Node i stores its block and the labels of `global` whose hub it owns.
    // Each list takes the planted labels first: they outrank every hub of
    // the DGLL phase.
    val perNode = blocks.map(_.size.toLong)
    val all = NodeLabels.merge(blocks, n)
    for (v <- 0 until n) {
      val lv = global.bufs(v)
      (0 until lv.size).foreach { i => perNode(lv.hubs(i) % q) += 1; all.add(v, lv.hubs(i), lv.dists(i)) }
    }
    val labeling = all.toLabeling(rank)
    (labeling, DistStats(
      timeMs = (System.nanoTime() - t0) / 1000000,
      syncs = syncs,
      labelsGenerated = labelsGenerated,
      labelsFinal = labeling.labelCount,
      redundantRemoved = redundantRemoved,
      bytesBroadcast = bytesBroadcast,
      bytesAllReduce = bytesAllReduce,
      explored = explored,
      perNodeLabels = if (paraPLL) perNode.map(_ => labeling.labelCount) else perNode,
      switchPos = switchPos))
  }
}
