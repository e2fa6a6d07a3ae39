package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import scala.jdk.CollectionConverters._
import repro.graph.{CsrGraph, Ranking}

/** Shared-memory parallel CHL construction.
  *
  * [[GLL.run]] implements the Global-Local-Labeling algorithm (§4.2):
  * threads claim roots in rank order from a global counter and build pruned
  * SPTs (rank + distance queries) appending to a locked *local* table while
  * consulting the lock-free *global* table; once the local table exceeds
  * `alpha * n` labels the threads synchronize, and the superstep's labels
  * are cleaned (Alg. 2's `DQ_Clean`, local candidates only) and committed
  * to the global table. A call runs on one pool of `threads` workers: each
  * superstep is two phases on it — construct, then clean and commit — and
  * each phase ends when every worker has. The local table is allocated once
  * per call and emptied after each commit.
  *
  * Cleaning and committing go vertex by vertex ([[Cleaning.commitVertex]]):
  * workers claim blocks of vertices, snapshot each `local(v)` once into a
  * dense array, test each of its labels `(h, δ)` against `local(h)`, and
  * append the survivors to `global(v)` in ascending hub order. Because
  * roots are claimed in rank order, every hub of superstep `s` ranks
  * strictly below every hub of superstep `s-1`, so that append keeps each
  * global list sorted, and each list has one writer. Construction already
  * tested every label against the global table, so a superstep's cleaning
  * cost follows the size of its own local table, not of the growing global
  * one — which is what makes GLL's interleaved cleaning cheaper than LCC's
  * one-shot cleaning. `cleanMs` includes the commit.
  *
  * [[GLL.runLCC]] is the two-step LCC algorithm (§4.1): exactly one
  * superstep (`alpha = ∞`) followed by one full cleaning pass.
  * [[GLL.runParaPLL]] is that superstep without rank queries or cleaning.
  */
object GLL {

  // vertices a worker claims at a time in the clean and commit phase
  private val VertexBlock = 64

  final case class Result(
      labeling: Labeling,
      timeMs: Long,
      constructMs: Long,
      cleanMs: Long,
      supersteps: Int,
      labelsGenerated: Long,
      redundantRemoved: Long,
      explored: Long,
  )

  def runLCC(g: CsrGraph, rank: Ranking, threads: Int): Result =
    runWith(g, rank, threads, Double.PositiveInfinity, paraPLL = false)

  /** SparaPLL, the paper's shared-memory paraPLL baseline: its labels cover
    * every pair but are not canonical (ALS ≥ CHL ALS, more so with threads).
    */
  def runParaPLL(g: CsrGraph, rank: Ranking, threads: Int): Result =
    runWith(g, rank, threads, Double.PositiveInfinity, paraPLL = true)

  def run(g: CsrGraph, rank: Ranking, threads: Int, alpha: Double = 4.0): Result =
    runWith(g, rank, threads, alpha, paraPLL = false)

  private def runWith(g: CsrGraph, rank: Ranking, threads: Int, alpha: Double,
                      paraPLL: Boolean): Result = {
    require(threads >= 1, s"threads must be at least 1, got $threads")
    require(alpha > 0, s"superstep label limit alpha must be positive, got $alpha")
    require(rank.n == g.n, s"ranking of ${rank.n} vertices for a graph of ${g.n}")
    val n  = g.n
    val t0 = System.nanoTime()
    val limit: Long =
      if (alpha.isPosInfinity) Long.MaxValue else math.max(1L, (alpha * n).toLong)

    // Global table: per-vertex growable label lists, sorted by the
    // append-only commit discipline above. Written only by the clean and
    // commit phase, so construction threads read it lock-free (the paper's
    // lock-avoidance point).
    val global = new LabelBuffers(n, threadSafe = false)
    // The superstep's local table, emptied after each commit.
    val local  = new LabelBuffers(n, threadSafe = true)
    val tables = Array(global, local)
    // thread t's scratch, for its trees and then for its cleaning snapshots
    val scratches = Array.fill(threads)(new DijkstraScratch(n))

    val rootPos     = new AtomicInteger(0)
    val exploredTot = new AtomicLong(0)
    var constructNs = 0L
    var cleanNs     = 0L
    var supersteps  = 0
    var generated   = 0L
    var removed     = 0L

    val pool = Executors.newFixedThreadPool(threads)
    // Runs body(t) for every thread t on the pool and returns once all have
    // ended; a worker's failure is rethrown as itself.
    def onEach(body: Int => Unit): Unit =
      pool.invokeAll((0 until threads).map(t => (() => body(t)): Callable[Unit]).asJava).forEach { f =>
        try f.get() catch { case e: ExecutionException => throw e.getCause }
      }

    try while (rootPos.get() < n) {
      supersteps += 1
      val labelsThisStep = new AtomicLong(0)

      val tc = System.nanoTime()
      onEach { t =>
        val scratch = scratches(t)
        var done = false
        while (!done) {
          if (labelsThisStep.get() >= limit) done = true
          else {
            val i = rootPos.getAndIncrement()
            if (i >= n) done = true
            else {
              var labels = 0L
              val e = PrunedDijkstra.buildTree(
                g, rank, rank.order(i), tables, rankQueries = !paraPLL, scratch,
                sink = (v, d) => { local.add(v, i, d); labels += 1 })
              labelsThisStep.addAndGet(labels)
              exploredTot.addAndGet(e)
            }
          }
        }
      }
      constructNs += System.nanoTime() - tc
      generated += labelsThisStep.get()

      // ---- synchronize: clean the superstep's labels, append to global ----
      // Each label (h, δ) ∈ local(v) is tested against local(h) only. The
      // global table cannot hold a witness: it does not change during the
      // superstep, h's tree snapshotted all of global(h), and buildTree
      // emitted (v, δ) only after testing global(v) at the same δ, every
      // hub of which outranks h. So no w ∈ global(h) ∩ global(v) gives
      // d ≤ δ, and as global and local have disjoint hub sets, every
      // witness lies in local(h) ∩ local(v). (For LCC global is empty.)
      // Workers claim blocks of vertices; local is read-only until the
      // phase ends, and global(v) has one writer. SparaPLL cleans nothing.
      val ts        = System.nanoTime()
      val vertexPos = new AtomicInteger(0)
      val removedBy = new Array[Long](threads)
      onEach { t =>
        var lo = vertexPos.getAndAdd(VertexBlock)
        while (lo < n) {
          var v = lo
          while (v < math.min(n, lo + VertexBlock)) {
            removedBy(t) += Cleaning.commitVertex(v, local, global, rank, scratches(t), clean = !paraPLL)
            v += 1
          }
          lo = vertexPos.getAndAdd(VertexBlock)
        }
      }
      local.clear()
      removed += removedBy.sum
      cleanNs += System.nanoTime() - ts
    } finally pool.shutdown()

    Result(
      labeling = global.toLabeling(rank),
      timeMs = (System.nanoTime() - t0) / 1000000,
      constructMs = constructNs / 1000000,
      cleanMs = cleanNs / 1000000,
      supersteps = supersteps,
      labelsGenerated = generated,
      redundantRemoved = removed,
      explored = exploredTot.get(),
    )
  }
}
