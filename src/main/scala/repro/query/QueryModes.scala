package repro.query

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.Labeling
import repro.graph.Ranking

/** The three distributed query-serving modes of §6, on a `q`-node
  * simulated cluster (DESIGN.md §3: nodes = Spark partitions; network
  * latency is modelled with cluster-Ethernet constants while per-query
  * compute is actually measured).
  *
  *  - QLSN: every node stores all labels; a query is answered by the node
  *    where it emerges (no network, memory q× replicated).
  *  - QFDL: each vertex's labels are split across all nodes by hub owner;
  *    a query is broadcast, partial minima are MPI_MIN-allreduced.
  *  - QDOL: the vertex set is cut into ζ parts with ζ(ζ-1)/2 ≤ q; a node
  *    stores the full labels of one part-pair and answers its queries
  *    entirely, via point-to-point messages.
  */
object QueryModes {

  /** Modelled one-way network costs (µs): broadcast+allreduce round for
    * QFDL, P2P request+response round for QDOL (§6; see DESIGN.md §3).
    */
  val BroadcastRtMicros = 20.0
  val P2pRtMicros       = 6.0

  final case class ModeMetrics(
      mode: String,
      distances: Array[Long],
      throughputQps: Double,
      latencyMicros: Double,
      memBytesTotal: Long,
      memBytesMaxNode: Long,
  )

  /** Random query endpoints, deterministic in the seed. */
  def genQueries(n: Int, count: Int, seed: Long): (Array[Int], Array[Int]) = {
    val rnd = new Random(seed)
    (Array.fill(count)(rnd.nextInt(n)), Array.fill(count)(rnd.nextInt(n)))
  }

  /** ζ for a q-node cluster: the largest ζ with C(ζ,2) ≤ q (≥ 2). */
  def zeta(q: Int): Int = {
    var z = 2
    while ((z + 1).toLong * z / 2 <= q) z += 1
    z
  }

  // ---------------------------------------------------------------- QLSN
  def qlsn(spark: SparkSession, labeling: Labeling, q: Int,
           us: Array[Int], vs: Array[Int]): ModeMetrics = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    val sc  = spark.sparkContext
    val bcL = sc.broadcast(labeling)
    val t0  = System.nanoTime()
    // one node answers the whole batch locally
    val res = sc.parallelize(us.indices, 1)
      .map { i => bcL.value.query(us(i), vs(i)) }
      .collect()
    val elapsed = (System.nanoTime() - t0) / 1e9
    val perQueryMicros = measureMergeMicros(labeling, us, vs)
    bcL.destroy()
    ModeMetrics("QLSN", res,
      throughputQps = us.length / elapsed,
      latencyMicros = perQueryMicros, // no network hop
      memBytesTotal = labeling.storageBytes * q,
      memBytesMaxNode = labeling.storageBytes)
  }

  // ---------------------------------------------------------------- QFDL
  /** `rank` is the ranking `labeling` was built under; the labeling's hub
    * positions already give each hub's owner, so it is not read.
    */
  def qfdl(spark: SparkSession, labeling: Labeling, rank: Ranking, q: Int,
           us: Array[Int], vs: Array[Int]): ModeMetrics = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    // node i receives only its owner slice, as its partition's data, and
    // answers the whole batch over it; the partial minima are MIN-reduced
    // on the driver (the paper's MPI_MIN allreduce)
    val slices = labeling.ownerSlices(q)
    val res = sc.parallelize(slices.toSeq, q)
      .map(l => Array.tabulate(us.length)(i => l.query(us(i), vs(i))))
      .reduce { (x, y) =>
        var i = 0
        while (i < x.length) { x(i) = math.min(x(i), y(i)); i += 1 }
        x
      }
    val elapsed = (System.nanoTime() - t0) / 1e9
    val largest = slices.maxBy(_.storageBytes)
    ModeMetrics("QFDL", res,
      throughputQps = us.length / elapsed,
      // the largest slice's merge, plus a broadcast+reduce round
      latencyMicros = measureMergeMicros(largest, us, vs) + BroadcastRtMicros,
      memBytesTotal = slices.map(_.storageBytes).sum,
      memBytesMaxNode = largest.storageBytes)
  }

  // ---------------------------------------------------------------- QDOL
  def qdol(spark: SparkSession, labeling: Labeling, q: Int,
           us: Array[Int], vs: Array[Int]): ModeMetrics = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    val sc = spark.sparkContext
    val z  = zeta(q)
    val nodes = z * (z - 1) / 2
    // node for an unordered part pair (p1 <= p2); same-part queries are
    // served by the node holding (p, (p+1) mod z)
    def pairNode(pu: Int, pv: Int): Int = {
      var (p1, p2) = if (pu <= pv) (pu, pv) else (pv, pu)
      if (p1 == p2) { p2 = (p1 + 1) % z; if (p2 < p1) { val t = p1; p1 = p2; p2 = t } }
      // index of pair (p1,p2) among all ordered pairs p1 < p2
      p1 * z - p1 * (p1 + 1) / 2 + (p2 - p1 - 1)
    }
    val bcL = sc.broadcast(labeling)
    val t0 = System.nanoTime()
    // queries are routed by a counting sort on their node (the paper's
    // footnote 9): node k's pairs are perm(start(k) until start(k + 1))
    val node  = Array.tabulate(us.length)(i => pairNode(us(i) % z, vs(i) % z))
    val start = new Array[Int](nodes + 1)
    node.foreach(k => start(k + 1) += 1)
    for (k <- 0 until nodes) start(k + 1) += start(k)
    val perm = new Array[Int](us.length)
    val next = start.clone()
    for (i <- us.indices) { perm(next(node(i))) = i; next(node(i)) += 1 }
    // one task per node with queries, each answering its own with full
    // label sets
    val busy = (0 until nodes).filter(k => start(k) < start(k + 1))
    val answers = sc.parallelize(busy, math.max(1, busy.length))
      .map { k =>
        val l = bcL.value
        Array.tabulate(start(k + 1) - start(k)) { j => val i = perm(start(k) + j); l.query(us(i), vs(i)) }
      }
      .collect()
    val res = new Array[Long](us.length)
    for ((k, ds) <- busy.zip(answers); j <- ds.indices) res(perm(start(k) + j)) = ds(j)
    val elapsed = (System.nanoTime() - t0) / 1e9
    val perQueryMicros = measureMergeMicros(labeling, us, vs)
    // per-node storage: full label sets of the node's two vertex parts
    val partBytes = Array.fill(z)(0L)
    (0 until labeling.n).foreach { v =>
      partBytes(v % z) += (labeling.offsets(v + 1) - labeling.offsets(v)) * Labeling.BytesPerLabel
    }
    val nodePairs = for (p1 <- 0 until z; p2 <- (p1 + 1) until z) yield (p1, p2)
    val perNodeBytes = nodePairs.map { case (p1, p2) => partBytes(p1) + partBytes(p2) }
    bcL.destroy()
    ModeMetrics("QDOL", res,
      throughputQps = us.length / elapsed,
      latencyMicros = perQueryMicros + P2pRtMicros,
      memBytesTotal = perNodeBytes.sum,
      memBytesMaxNode = perNodeBytes.max)
  }

  /** Measured single-thread merge time per query over `l` (µs), averaged
    * over a bounded probe prefix — the compute component of latency.
    */
  private def measureMergeMicros(l: Labeling, us: Array[Int], vs: Array[Int]): Double = {
    val probes = math.min(2000, us.length)
    var sink = 0L
    val t0 = System.nanoTime()
    var i = 0
    while (i < probes) { sink += l.query(us(i), vs(i)); i += 1 }
    val dt = (System.nanoTime() - t0) / 1e3 / probes
    if (sink == Long.MinValue) Console.err.println("unreachable") // keep sink live
    dt
  }
}
