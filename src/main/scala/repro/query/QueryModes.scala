package repro.query

import scala.util.Random
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
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
  *
  * The labels stay resident on the nodes between calls, as on the paper's
  * nodes: the first call on a labeling loads them (see [[Resident]]), and a
  * later call ships only its batch. Every mode's clock starts before the
  * load, so a loading call counts it.
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
    requireBatch(labeling, q, us, vs)
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    // the batch emerges on the q nodes in q contiguous shares, and each node
    // answers its own share locally
    val bounds = Array.tabulate(q + 1)(k => (k.toLong * us.length / q).toInt)
    val shares = Array.tabulate(q) { k =>
      (java.util.Arrays.copyOfRange(us, bounds(k), bounds(k + 1)),
       java.util.Arrays.copyOfRange(vs, bounds(k), bounds(k + 1)))
    }
    val res = Array.concat(answerOnNodes(sc, resident(sc, labeling).whole, shares).toSeq: _*)
    val elapsed = (System.nanoTime() - t0) / 1e9
    ModeMetrics("QLSN", res,
      throughputQps = us.length / elapsed,
      latencyMicros = measureMergeMicros(labeling, us, vs), // no network hop
      memBytesTotal = labeling.storageBytes * q,
      memBytesMaxNode = labeling.storageBytes)
  }

  // ---------------------------------------------------------------- QFDL
  /** `rank` is the ranking `labeling` was built under; the labeling's hub
    * positions already give each hub's owner, so it is not read.
    */
  def qfdl(spark: SparkSession, labeling: Labeling, rank: Ranking, q: Int,
           us: Array[Int], vs: Array[Int]): ModeMetrics = {
    requireBatch(labeling, q, us, vs)
    val sc = spark.sparkContext
    val t0 = System.nanoTime()
    // node k answers the whole batch, shipped once in the job's closure,
    // over its resident owner slice; the partial minima are MIN-reduced on
    // the driver (the paper's MPI_MIN allreduce)
    val sliced = resident(sc, labeling).slices(q)
    val nodes = sliced.nodes
    val res = sc.parallelize(0 until q, q)
      .map(k => answer(nodes.value(k), us, vs))
      .reduce { (x, y) =>
        var i = 0
        while (i < x.length) { x(i) = math.min(x(i), y(i)); i += 1 }
        x
      }
    val elapsed = (System.nanoTime() - t0) / 1e9
    ModeMetrics("QFDL", res,
      throughputQps = us.length / elapsed,
      // the largest slice's merge, plus a broadcast+reduce round
      latencyMicros = measureMergeMicros(sliced.largest, us, vs) + BroadcastRtMicros,
      memBytesTotal = sliced.bytesTotal,
      memBytesMaxNode = sliced.largest.storageBytes)
  }

  // ---------------------------------------------------------------- QDOL
  def qdol(spark: SparkSession, labeling: Labeling, q: Int,
           us: Array[Int], vs: Array[Int]): ModeMetrics = {
    requireBatch(labeling, q, us, vs)
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
    // node k answers its routed pairs with full label sets, and the driver
    // scatters the answers back through perm
    def routed(xs: Array[Int], k: Int) = Array.tabulate(start(k + 1) - start(k))(j => xs(perm(start(k) + j)))
    val shares = Array.tabulate(nodes)(k => (routed(us, k), routed(vs, k)))
    val answers = answerOnNodes(sc, resident(sc, labeling).whole, shares)
    val res = new Array[Long](us.length)
    for (k <- 0 until nodes; j <- answers(k).indices) res(perm(start(k) + j)) = answers(k)(j)
    val elapsed = (System.nanoTime() - t0) / 1e9
    val perQueryMicros = measureMergeMicros(labeling, us, vs)
    // per-node storage: full label sets of the node's two vertex parts
    val partBytes = Array.fill(z)(0L)
    (0 until labeling.n).foreach { v =>
      partBytes(v % z) += (labeling.offsets(v + 1) - labeling.offsets(v)) * Labeling.BytesPerLabel
    }
    val nodePairs = for (p1 <- 0 until z; p2 <- (p1 + 1) until z) yield (p1, p2)
    val perNodeBytes = nodePairs.map { case (p1, p2) => partBytes(p1) + partBytes(p2) }
    ModeMetrics("QDOL", res,
      throughputQps = us.length / elapsed,
      latencyMicros = perQueryMicros + P2pRtMicros,
      memBytesTotal = perNodeBytes.sum,
      memBytesMaxNode = perNodeBytes.max)
  }

  /** The checks every mode makes before its clock starts. */
  private def requireBatch(l: Labeling, q: Int, us: Array[Int], vs: Array[Int]): Unit = {
    require(q >= 1, s"node count q must be at least 1, got $q")
    require(us.nonEmpty && us.length == vs.length, s"query batch needs as many v as u, at least one: ${us.length} u, ${vs.length} v")
    var i = 0
    while (i < us.length && us(i) >= 0 && us(i) < l.n && vs(i) >= 0 && vs(i) < l.n) i += 1
    require(i == us.length, s"query $i, (${us(i)}, ${vs(i)}), has a vertex outside [0, ${l.n})")
  }

  /** QLSN's and QDOL's job: node `k` answers the pairs `shares(k)` over
    * the resident labeling `whole`. Share `k` is partition `k`'s data, so
    * each node receives only its own pairs. Returns node `k`'s answers as
    * element `k`, in its share's order.
    */
  private def answerOnNodes(sc: SparkContext, whole: Broadcast[Labeling],
                            shares: Array[(Array[Int], Array[Int])]): Array[Array[Long]] =
    sc.parallelize(shares.toSeq, shares.length)
      .map { case (su, sv) => answer(whole.value, su, sv) }
      .collect()

  /** The job body of every mode: node `k`'s answers to its pairs
    * `(us(i), vs(i))` over its labels `l` (the whole labeling for QLSN and
    * QDOL, owner slice `k` for QFDL), in order.
    */
  private def answer(l: Labeling, us: Array[Int], vs: Array[Int]): Array[Long] = {
    val out = new Array[Long](us.length)
    var i = 0
    while (i < us.length) { out(i) = l.query(us(i), vs(i)); i += 1 }
    out
  }

  /** The labels resident on the simulated nodes: those of `labeling`, for
    * the live context `sc`. [[whole]] is the one broadcast QLSN and QDOL
    * read; [[slices]] adds QFDL's owner slices at the first call at a `q`.
    * Each is built and shipped once, on first use.
    */
  private final class Resident(val sc: SparkContext, val labeling: Labeling) {
    lazy val whole: Broadcast[Labeling] = sc.broadcast(labeling)

    private var sliced: Sliced = _

    /** QFDL's slices at `q`; those of another `q` are dropped. */
    def slices(q: Int): Sliced = synchronized {
      if (sliced == null || sliced.q != q) sliced = new Sliced(sc, labeling.ownerSlices(q))
      sliced
    }
  }

  /** A labeling's `q` owner slices, shipped to the nodes in one broadcast
    * (so the ranking they share crosses once); node `k` reads only slice
    * `k`. The driver keeps what the modelled metrics read.
    */
  private final class Sliced(sc: SparkContext, all: Array[Labeling]) {
    val q: Int = all.length
    val nodes: Broadcast[Array[Labeling]] = sc.broadcast(all)
    val largest: Labeling = all.maxBy(_.storageBytes)
    val bytesTotal: Long = all.map(_.storageBytes).sum
  }

  /** The one resident store: one labeling at a time, on one context. */
  private var store: Resident = _

  /** The resident labels of `l` on `sc`, loaded anew when the store holds
    * another labeling (compared by reference: a `Labeling` is immutable) or
    * another or stopped context. The replaced broadcasts are not destroyed,
    * since a job on another thread may still read them; once unreferenced,
    * Spark's `ContextCleaner` removes them.
    */
  private def resident(sc: SparkContext, l: Labeling): Resident = synchronized {
    if (store == null || (store.sc ne sc) || sc.isStopped || (store.labeling ne l)) store = new Resident(sc, l)
    store
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
