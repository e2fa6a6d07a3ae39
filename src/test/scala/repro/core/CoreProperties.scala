package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.dist.NodeLabels
import repro.graph.{CsrGraph, LongMinHeap, Ranking, TestGraphs}
import repro.TestUtil._

/** ScalaCheck property suites over the pure (non-Spark) core.
  *
  * These run under sbt's native ScalaCheck framework alongside the
  * ScalaTest suites and hammer the algorithms with randomized inputs well
  * beyond the fixed seeds used elsewhere.
  */
object CoreProperties extends Properties("repro.core") {

  private val smallGraph: Gen[CsrGraph] = for {
    n    <- Gen.choose(2, 28)
    m    <- Gen.choose(1, 3 * n)
    maxW <- Gen.choose(1, 9)
    seed <- Gen.choose(0L, 1000000L)
  } yield TestGraphs.randomSparse(n, m, maxW, seed)

  private val graphWithRank: Gen[(CsrGraph, Ranking)] = for {
    g    <- smallGraph
    seed <- Gen.choose(0L, 1000000L)
  } yield (g, randomRanking(g.n, seed))

  property("heap pops every pushed element in nondecreasing order") =
    Prop.forAll(Gen.listOf(Gen.zip(Gen.choose(0L, 1 << 20), Gen.choose(0, 1000)))) { items =>
      val h = new LongMinHeap(4)
      items.foreach { case (d, v) => h.push(d, v) }
      var prev = -1L; var cnt = 0; var ok = true
      while (h.nonEmpty) {
        ok &&= h.topDist >= prev
        prev = h.topDist; h.pop(); cnt += 1
      }
      ok && cnt == items.size
    }

  // Dijkstra's access pattern: bursts of 1–4 pushes, each at a distance
  // above the last pop's (weights are positive), then fewer pops than
  // pushes, then a drain. Under it a
  // heap that pops the minimum of the (dist, vertex) order pops exactly the
  // sorted sequence of every key pushed; explored counts, Ψ and the Hybrid
  // switch rest on that order. Small runs cover sizes 0–21, the first three
  // levels of the 4-ary heap; large runs grow from capacity 4 past 1,000
  // entries, since each burst leaves at least one more entry behind.
  property("heap pops exactly the sorted (dist, vertex) keys under Dijkstra's pattern") =
    Prop.forAll(
      Gen.oneOf(Gen.choose(0, 21), Gen.choose(4004, 5000)),
      Gen.oneOf(0L, LongMinHeap.MaxDistance - 100000),
      Gen.oneOf(8, LongMinHeap.MaxVertices),
      Gen.choose(0L, 1000000L),
    ) { (total, base, vertices, seed) =>
      val rnd    = new scala.util.Random(seed)
      val h      = new LongMinHeap(4)
      val pushed = scala.collection.mutable.ArrayBuffer.empty[(Long, Int)]
      val popped = scala.collection.mutable.ArrayBuffer.empty[(Long, Int)]
      var last = base; var size = 0; var peak = 0
      def pop(): Unit = {
        last = h.topDist; popped += ((last, h.topVertex)); h.pop(); size -= 1
      }
      while (pushed.size < total) {
        val burst = math.min(1 + rnd.nextInt(4), total - pushed.size)
        for (_ <- 0 until burst) {
          val key = (last + 1 + rnd.nextInt(3), rnd.nextInt(vertices))
          h.push(key._1, key._2); pushed += key; size += 1
        }
        peak = math.max(peak, size)
        for (_ <- 0 until rnd.nextInt(burst)) pop()
      }
      while (h.nonEmpty) pop()
      popped == pushed.sorted && peak >= total / 4
    }

  property("byScore ranking is a permutation ordered by score") =
    Prop.forAll(Gen.nonEmptyListOf(Gen.choose(0.0, 100.0))) { scores =>
      val r = Ranking.byScore(scores.toArray)
      val perm = r.rankOf.sorted.sameElements(scores.indices)
      val mono = r.order.toSeq.map(scores).zip(r.order.toSeq.tail.map(scores))
        .forall { case (a, b) => a >= b }
      perm && mono
    }

  property("Dijkstra agrees with Floyd-Warshall") =
    Prop.forAll(smallGraph) { g =>
      val a = allPairs(g)
      val b = TestGraphs.floydWarshall(g)
      (0 until g.n).forall(u => a(u).sameElements(b(u)))
    }

  property("seqPLL emits exactly the reference canonical labeling") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      SeqPLL.run(g, r).labeling.tripleSet == ReferenceCHL.labelSet(g, r)
    }

  property("seqPLL labeling answers every pair like Dijkstra") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      val l = SeqPLL.run(g, r).labeling
      val d = allPairs(g)
      (0 until g.n).forall(u => (0 until g.n).forall(v => l.query(u, v) == d(u)(v)))
    }

  property("shared-memory PLaNT trees reproduce the canonical labeling") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      // PlantTree is pure; plant every root on this thread, no cluster
      val scratch = new DijkstraScratch(g.n)
      val out = Set.newBuilder[(Int, Int, Long)]
      (0 until g.n).foreach { pos =>
        val root = r.order(pos)
        repro.dist.PlantTree.build(g, r, root, hc = null, scratch,
          sink = (v, d) => out += ((v, root, d)))
      }
      out.result() == ReferenceCHL.labelSet(g, r)
    }

  property("GLL at random alpha equals seqPLL") =
    Prop.forAll(graphWithRank, Gen.choose(1.0, 16.0)) { case ((g, r), alpha) =>
      GLL.run(g, r, threads = 4, alpha).labeling.tripleSet ==
        SeqPLL.run(g, r).labeling.tripleSet
    }

  property("paraPLL labeling still covers all pairs") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      val l = GLL.runParaPLL(g, r, threads = 4).labeling
      val d = allPairs(g)
      (0 until g.n).forall(u => (0 until g.n).forall(v => l.query(u, v) == d(u)(v)))
    }

  property("labeling query is symmetric") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      val l = SeqPLL.run(g, r).labeling
      (0 until g.n).forall(u => (0 until g.n).forall(v => l.query(u, v) == l.query(v, u)))
    }

  property("every hub outranks or equals the vertex it labels") =
    Prop.forAll(graphWithRank) { case (g, r) =>
      SeqPLL.run(g, r).labeling.triples.forall(t => t.v == t.h || r(t.h) > r(t.v))
    }

  property("toLabeling sorts labels added in random order by hub position") =
    Prop.forAll(graphWithRank, Gen.choose(0L, 1000L)) { case ((g, r), seed) =>
      // the canonical (vertex, hub position) pairs, each with a distance
      // that names its pair, added in random order: each root's run goes to
      // a random one of up to four blocks, its vertices shuffled. The merge
      // by root in NodeLabels.merge does the ordering; toLabeling checks it.
      val l = SeqPLL.run(g, r).labeling
      def tag(v: Int, p: Int): Long = v.toLong * g.n + p
      val labels = (0 until g.n).flatMap(v =>
        (l.offsets(v) until l.offsets(v + 1)).map(k => (v, l.hubPos(k), tag(v, l.hubPos(k)))))
      val rnd    = new scala.util.Random(seed)
      val blocks = Array.fill(1 + rnd.nextInt(4))(new NodeLabels.Builder)
      labels.groupBy(_._2).toSeq.sortBy(_._1).foreach { case (_, run) =>
        val b = blocks(rnd.nextInt(blocks.length))
        rnd.shuffle(run).foreach { case (v, p, d) => b.add(v, p, d) }
      }
      val s = NodeLabels.merge(blocks.map(_.result()), g.n).toLabeling(r)
      val out = (0 until g.n).flatMap(v =>
        (s.offsets(v) until s.offsets(v + 1)).map(k => (v, s.hubPos(k), s.hubDist(k))))
      val ascending = out.zip(out.drop(1)).forall { case (a, b) => a._1 != b._1 || a._2 < b._2 }
      val paired    = out.forall { case (v, p, d) => d == tag(v, p) }
      ascending && paired && out.sorted == labels.sorted
    }
}
