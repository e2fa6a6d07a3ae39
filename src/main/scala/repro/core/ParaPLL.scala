package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import repro.graph.{CsrGraph, Ranking}

/** Shared-memory paraPLL (Qiu et al.) — the paper's SparaPLL baseline.
  *
  * Concurrent pruned-Dijkstra instances with dynamic task assignment over
  * the rank-ordered queue and a snapshot of the root's labels taken before
  * each tree launch (a dense per-thread hub→distance array in
  * [[DijkstraScratch]]) — but **no rank queries and no cleaning**, so
  * the output satisfies the cover property (exact distances) yet is *not*
  * canonical: ALS ≥ CHL ALS, and the gap grows with thread count.
  */
object ParaPLL {

  final case class Result(labeling: Labeling, timeMs: Long, explored: Long)

  def run(g: CsrGraph, rank: Ranking, threads: Int): Result = {
    require(threads >= 1, s"threads must be at least 1, got $threads")
    val n  = g.n
    val t0 = System.nanoTime()
    val buffers  = new LabelBuffers(n, threadSafe = true)
    val tables   = Array(buffers)
    val rootPos  = new AtomicInteger(0)
    val explored = new AtomicLong(0)
    val workers = (0 until threads).map { _ =>
      new Thread(() => {
        val scratch = new DijkstraScratch(n)
        var done = false
        while (!done) {
          val i = rootPos.getAndIncrement()
          if (i >= n) done = true
          else {
            val root = rank.order(i)
            val e = PrunedDijkstra.buildTree(
              g, rank, root, tables, rankQueries = false, scratch,
              sink = (v, d) => buffers.add(v, i, d))
            explored.addAndGet(e)
          }
        }
      })
    }
    workers.foreach(_.start())
    workers.foreach(_.join())
    // concurrent trees append to a list out of rank order: toLabeling sorts
    Result(buffers.toLabeling(rank), (System.nanoTime() - t0) / 1000000, explored.get())
  }
}
