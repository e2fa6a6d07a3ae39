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
  * `alpha * n` labels the threads synchronize, and the superstep's trees
  * are cleaned (Alg. 2's `DQ_Clean`, local candidates only) and committed
  * to the global table. A call runs on one pool of `threads` workers: each
  * superstep is three phases on it — construct, clean, commit — and each
  * phase ends when every worker has. The local table is allocated once
  * per call and emptied after each commit.
  *
  * Each thread records its trees in its own [[NodeLabels]] block. Because
  * roots are claimed in rank order, every hub of superstep `s` ranks
  * strictly below every hub of superstep `s-1`; committing is therefore a
  * cheap *append*, tree by tree in root order, to the per-vertex global
  * lists, sorted by hub position, done in parallel with one thread per
  * vertex range ([[LabelBuffers.appendRuns]]). Cleaning is grouped by tree
  * and needs the local table only: each root's `local(h)` is snapshotted
  * once into a dense array and every label `(v, δ)` of its tree scans
  * `local(v)` ([[Cleaning.markRun]]). Construction already tested every
  * label against the global table, so a superstep's cleaning cost follows
  * the size of its own local table, not of the growing global one — which
  * is what makes GLL's interleaved cleaning cheaper than LCC's one-shot
  * cleaning. `commitMs` is the part of `cleanMs` spent appending and
  * emptying the local table.
  *
  * [[GLL.runLCC]] is the two-step LCC algorithm (§4.1): exactly one
  * superstep (`alpha = ∞`) followed by one full cleaning pass.
  * [[GLL.runParaPLL]] is that superstep without rank queries or cleaning.
  */
object GLL {

  final case class Result(
      labeling: Labeling,
      timeMs: Long,
      constructMs: Long,
      cleanMs: Long,
      commitMs: Long,
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
    // append-only commit discipline above. Written only at superstep
    // barriers, so construction threads read it lock-free (the paper's
    // lock-avoidance point).
    val global = new LabelBuffers(n, threadSafe = false)
    // The superstep's local table, emptied after each commit.
    val local  = new LabelBuffers(n, threadSafe = true)
    val tables = Array(global, local)
    // Where the tree rooted at rank position p is kept until its superstep
    // commits: (t << 32) | i, for the run starting at label i of thread t's
    // block. Each thread's block holds its trees in the order it claimed them.
    val runAt = new Array[Long](n)
    // thread t's scratch, for its trees and then for its cleaning snapshots
    val scratches = Array.fill(threads)(new DijkstraScratch(n))

    val rootPos     = new AtomicInteger(0)
    val exploredTot = new AtomicLong(0)
    var constructNs = 0L
    var cleanNs     = 0L
    var commitNs    = 0L
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
      val a              = rootPos.get()
      val labelsThisStep = new AtomicLong(0)
      val blocks         = new Array[NodeLabels](threads)

      val tc = System.nanoTime()
      onEach { t =>
        val scratch = scratches(t)
        val out     = new NodeLabels.Builder
        var done = false
        while (!done) {
          if (labelsThisStep.get() >= limit) done = true
          else {
            val i = rootPos.getAndIncrement()
            if (i >= n) done = true
            else {
              val start = out.size
              runAt(i) = (t.toLong << 32) | start
              val e = PrunedDijkstra.buildTree(
                g, rank, rank.order(i), tables, rankQueries = !paraPLL, scratch,
                sink = (v, d) => { local.add(v, i, d); out.add(v, i, d) })
              labelsThisStep.addAndGet(out.size - start)
              exploredTot.addAndGet(e)
            }
          }
        }
        blocks(t) = out.result()
      }
      constructNs += System.nanoTime() - tc
      generated += labelsThisStep.get()
      val b = math.min(n, rootPos.get()) // this superstep built roots a until b

      // ---- synchronize: clean the superstep's trees, append to global ----
      // Cleaning threads claim roots h and test each label (v, δ) of h's
      // tree against the snapshot of local(h), scanning local(v) only. The
      // global table cannot hold a witness: it does not change during the
      // superstep, h's tree snapshotted all of global(h), and buildTree
      // emitted (v, δ) only after testing global(v) at the same δ, every
      // hub of which outranks h. So no w ∈ global(h) ∩ global(v) gives
      // d ≤ δ, and as global and local have disjoint hub sets, every
      // witness lies in local(h) ∩ local(v). (For LCC global is empty.)
      // Both tables are read-only until the commit; of local, markRun locks
      // only h's list, for its snapshot. SparaPLL cleans nothing and commits all.
      val ts       = System.nanoTime()
      val marks    = if (paraPLL) null else blocks.map(bl => new Array[Boolean](bl.size))
      val cleanPos = new AtomicInteger(if (paraPLL) b else a)
      onEach { t =>
        val scratch = scratches(t)
        var p = cleanPos.getAndIncrement()
        while (p < b) {
          val k = (runAt(p) >>> 32).toInt
          Cleaning.markRun(blocks(k), runAt(p).toInt, p, local, rank, scratch, marks(k))
          p = cleanPos.getAndIncrement()
        }
      }
      // Commit the survivors whose v is in thread t's vertex range, root by
      // root: each list has one writer, and every hub of this superstep
      // ranks below every hub already in global, so the lists stay sorted
      // by hub position.
      val tm        = System.nanoTime()
      val removedBy = new Array[Long](threads)
      onEach { t =>
        val lo = (n.toLong * t / threads).toInt
        val hi = (n.toLong * (t + 1) / threads).toInt
        removedBy(t) = global.appendRuns(blocks, marks, lo, hi)
      }
      local.clear()
      val te = System.nanoTime()
      commitNs += te - tm
      removed += removedBy.sum
      cleanNs += te - ts
    } finally pool.shutdown()

    Result(
      labeling = global.toLabeling(rank),
      timeMs = (System.nanoTime() - t0) / 1000000,
      constructMs = constructNs / 1000000,
      cleanMs = cleanNs / 1000000,
      commitMs = commitNs / 1000000,
      supersteps = supersteps,
      labelsGenerated = generated,
      redundantRemoved = removed,
      explored = exploredTot.get(),
    )
  }
}
