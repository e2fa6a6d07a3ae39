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
  * bitvectors are OR-allreduced.
  */
object DGLL {

  val DefaultBeta = 8

  def run(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int,
          beta: Int = DefaultBeta): (Labeling, DistStats) = {
    require(beta >= 2, s"superstep growth beta must be at least 2, got $beta")
    runWith(spark, g, rank, q, beta, paraPLL = false)
  }

  /** DparaPLL: the same supersteps with no rank pruning and no cleaning,
    * every exchanged label kept and replicated on every node.
    */
  def runParaPLL(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int): (Labeling, DistStats) =
    runWith(spark, g, rank, q, DefaultBeta, paraPLL = true)

  private def runWith(spark: SparkSession, g: CsrGraph, rank: Ranking, q: Int, beta: Int,
                      paraPLL: Boolean): (Labeling, DistStats) = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    val sc  = spark.sparkContext
    val t0  = System.nanoTime()
    val acc = new SimCluster.StatsAccum
    val bcGraph = sc.broadcast(g)
    val bcRank  = sc.broadcast(rank)
    val prior   = Array.fill(q)(NodeLabels.empty)
    val global  = runSupersteps(spark, bcGraph, bcRank, q, beta, paraPLL,
      hc = null, startPos = 0, prior, acc)
    bcGraph.destroy(); bcRank.destroy()
    SimCluster.finish(prior, global, rank, acc, t0, replicate = paraPLL)
  }

  /** Geometrically growing superstep sizes covering `total` roots. */
  private[dist] def superstepSizes(total: Int, beta: Int): Seq[Int] = {
    if (total <= 0) return Nil
    val steps = math.max(1, math.ceil(math.log(math.max(2.0, total.toDouble)) / math.log(beta.toDouble)).toInt)
    val denom = (math.pow(beta.toDouble, steps.toDouble) - 1) / (beta - 1)
    val s0    = math.max(1.0, total / denom)
    val sizes = (0 until steps).map(k => math.max(1, math.round(s0 * math.pow(beta.toDouble, k.toDouble)).toInt))
    sizes
  }

  /** The superstep engine, reusable by Hybrid's post-switch phase.
    *
    * @param paraPLL  DparaPLL: no rank queries and no cleaning
    * @param hc       optional Common Label Table consulted by distance
    *                 queries on every node (§5.3)
    * @param prior    labels stored per node before this phase (Hybrid's
    *                 PLaNT phase output, else empty blocks), block `i` on
    *                 node `i`; visible for pruning only to their owner, and
    *                 as cleaning witnesses to everyone via the bitvector
    *                 scheme. Each superstep node `i` indexes block `i` into
    *                 its own table, which its trees then grow. The array is
    *                 broadcast once per phase, but node `i` reads only block
    *                 `i`: simulation plumbing, not metered.
    * @return the phase's labels, for [[SimCluster.finish]] with `prior`
    */
  private[dist] def runSupersteps(
      spark: SparkSession,
      bcGraph: Broadcast[CsrGraph],
      bcRank: Broadcast[Ranking],
      q: Int,
      beta: Int,
      paraPLL: Boolean,
      hc: LabelBuffers,
      startPos: Int,
      prior: Array[NodeLabels],
      acc: SimCluster.StatsAccum,
  ): LabelBuffers = {
    val sc      = spark.sparkContext
    val n       = bcRank.value.n
    val bcHc    = if (hc != null) sc.broadcast(hc) else null
    val bcPrior = sc.broadcast(prior)

    // The phase's labels, stored once; every node receives them to prune
    // with. Hybrid's pre-switch PLaNT labels are not here: they were never
    // exchanged, and each node sees only its own block of them, `prior(pid)`.
    // Each superstep's roots rank below all earlier ones, so committing appends
    // to lists sorted by hub position, as GLL's commit does. It is broadcast
    // as it is: the driver appends to it only after the superstep's jobs and
    // `bcGlobal.destroy()`, so no task reads it while it grows (in local mode
    // tasks share the driver's instance).
    val global = new LabelBuffers(n, threadSafe = false)

    var pos = startPos
    val sizes = superstepSizes(n - startPos, beta).iterator
    while (pos < n) {
      val size = if (sizes.hasNext) sizes.next() else n - pos
      val a = pos
      val b = math.min(n, a + size)
      pos = b

      val bcGlobal = sc.broadcast(global)
      // candidates(i): the labels node i generated, in root order; the
      // collect is the superstep's label exchange (metered below)
      val (candidates, explored) = SimCluster.round(sc, q, a, b) { pid =>
        val gg = bcGraph.value; val rk = bcRank.value
        // grown by this superstep's trees, whose roots rank below the block's
        val own = bcPrior.value(pid).index(gg.n)
        val tables =
          if (bcHc != null) Array(bcGlobal.value, own, bcHc.value) else Array(bcGlobal.value, own)
        val scratch = new DijkstraScratch(gg.n)
        (p, sink) => PrunedDijkstra.buildTree(gg, rk, rk.order(p), tables, rankQueries = !paraPLL,
          scratch, sink = (v, d) => { own.add(v, p, d); sink(v, d) })
      }
      bcGlobal.destroy()
      val generated = candidates.map(_.size.toLong).sum
      acc.labelsGenerated += generated
      acc.explored += explored.sum
      acc.recordExchange(generated, q, cleaned = !paraPLL)

      val marks =
        if (paraPLL || generated == 0) null
        else cleanCandidates(spark, bcPrior, bcRank, candidates)
      acc.redundantRemoved += global.appendRuns(candidates, marks, 0, n)
    }
    if (bcHc != null) bcHc.destroy()
    bcPrior.destroy()
    global
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
  private def cleanCandidates(
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
        lab.appendRuns(Array(cand(pid)), null, 0, rk.n)
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
