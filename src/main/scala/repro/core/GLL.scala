package repro.core

import java.util.concurrent.CyclicBarrier
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import repro.graph.{CsrGraph, Ranking}

/** Shared-memory parallel CHL construction.
  *
  * [[GLL.run]] implements the Global-Local-Labeling algorithm (§4.2):
  * threads claim roots in rank order from a global counter and build pruned
  * SPTs (rank + distance queries) appending to a locked *local* table while
  * consulting the lock-free *global* table; once the local table exceeds
  * `alpha * n` labels the threads synchronize, and the superstep's trees
  * are cleaned (Alg. 2's `DQ_Clean`, local candidates only) and committed
  * to the global table.
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
  * cleaning. `commitMs` is the part of `cleanMs` spent appending.
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
    val n  = g.n
    val t0 = System.nanoTime()
    val limit: Long =
      if (alpha.isPosInfinity) Long.MaxValue else math.max(1L, (alpha * n).toLong)

    // Global table: per-vertex growable label lists, sorted by the
    // append-only commit discipline above. Written only at superstep
    // barriers, so construction threads read it lock-free (the paper's
    // lock-avoidance point).
    val global = new LabelBuffers(n, threadSafe = false)
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

    while (rootPos.get() < n) {
      supersteps += 1
      val a              = rootPos.get()
      val local          = new LabelBuffers(n, threadSafe = true)
      val labelsThisStep = new AtomicLong(0)
      val tables         = Array(global, local)
      val blocks         = new Array[NodeLabels](threads)

      val tc = System.nanoTime()
      val workers = (0 until threads).map { t =>
        new Thread(() => {
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
        })
      }
      workers.foreach(_.start())
      workers.foreach(_.join())
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
      val ts = System.nanoTime()
      val marks       = if (paraPLL) null else blocks.map(bl => new Array[Boolean](bl.size))
      val cleanPos    = new AtomicInteger(if (paraPLL) b else a)
      val removedBy   = new Array[Long](threads)
      var commitStart = 0L
      val cleaned     = new CyclicBarrier(threads, () => commitStart = System.nanoTime())
      val cleaners = (0 until threads).map { t =>
        new Thread(() => {
          val scratch = scratches(t)
          var p = cleanPos.getAndIncrement()
          while (p < b) {
            val k = (runAt(p) >>> 32).toInt
            Cleaning.markRun(blocks(k), runAt(p).toInt, p, local, rank, scratch, marks(k))
            p = cleanPos.getAndIncrement()
          }
          cleaned.await()
          // Commit the survivors whose v is in this thread's vertex range,
          // root by root: each list has one writer, and every hub of this
          // superstep ranks below every hub already in global, so the
          // lists stay sorted by hub position.
          val lo = (n.toLong * t / threads).toInt
          val hi = (n.toLong * (t + 1) / threads).toInt
          removedBy(t) = global.appendRuns(blocks, marks, lo, hi)
        })
      }
      cleaners.foreach(_.start())
      cleaners.foreach(_.join())
      val te = System.nanoTime()
      commitNs += te - commitStart
      removed += removedBy.sum
      cleanNs += te - ts
    }

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
