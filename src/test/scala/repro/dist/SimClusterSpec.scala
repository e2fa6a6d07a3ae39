package repro.dist

import repro.SparkSpec
import repro.core.{LabelBuffers, NodeLabels}
import repro.graph.{GraphGen, Ranking}
import repro.TestUtil._

class SimClusterSpec extends SparkSpec {

  test("round gives node i the roots p = i (mod q) in [a, b), ascending") {
    val q = 4
    // [5, 19) starts off a multiple of q; [7, 9) holds fewer roots than
    // nodes, so nodes 1 and 2 get none; [3, 3) holds no root
    for ((a, b) <- Seq((0, 12), (5, 19), (7, 9), (3, 3))) {
      // each tree emits one label (vertex = its node, distance = its root)
      // and explores 10 vertices
      val (blocks, explored) = SimCluster.round(spark.sparkContext, q, a, b) { pid =>
        (p, sink) => { sink(pid, p.toLong); 10L }
      }
      assert(blocks.length == q && explored.length == q)
      for (i <- 0 until q) {
        val nl    = blocks(i)
        val roots = (a until b).filter(_ % q == i)
        assert(nl.h.toSeq == roots && nl.d.toSeq == roots.map(_.toLong), s"[$a, $b) node $i")
        assert(nl.v.forall(_ == i), s"[$a, $b) node $i ran on another task")
        assert(explored(i) == 10L * roots.size, s"[$a, $b) node $i")
      }
    }
  }

  test("finish reports per-node counts that sum to the total") {
    val q    = 3
    val rank = identityRanking(12)
    // node i owns the hubs at positions i, i+3, i+6
    val blocks = Array.tabulate(q) { i =>
      val hubs = i until 9 by q
      new NodeLabels(hubs.flatMap(_ => Seq(1, 2)).toArray, hubs.flatMap(h => Seq(h, h)).toArray,
        hubs.flatMap(_ => Seq(1L, 2L)).toArray)
    }
    val (l, stats) = SimCluster.finish(blocks, new LabelBuffers(rank.n, threadSafe = false), rank,
      new SimCluster.StatsAccum, System.nanoTime())
    assert(stats.perNodeLabels.toSeq == Seq(6L, 6L, 6L))
    assert(l.labelCount == 18 && stats.labelsFinal == 18)
    assert(l.hubs(1).toSeq == (0 until 9).map(rank.order), "each vertex's hubs must be rank-descending")
    assert(l.query(1, 2) == 3)

    // a DGLL phase's table: hubs ranked below every block's, each label
    // counted on its hub's owner
    val global = new LabelBuffers(rank.n, threadSafe = false)
    for ((v, h) <- Seq((1, 9), (2, 9), (1, 10), (2, 10), (3, 10), (3, 11))) global.add(v, h, 5L)
    val (lg, sg) = SimCluster.finish(blocks, global, rank, new SimCluster.StatsAccum, System.nanoTime())
    assert(sg.perNodeLabels.toSeq == Seq(8L, 9L, 7L))
    for (i <- 0 until q) assert(sg.perNodeLabels(i) == lg.hubPos.count(_ % q == i), s"node $i")
    assert(lg.labelCount == 24 && sg.labelsFinal == 24)
    for (v <- 0 until rank.n) {
      val hubs = lg.hubPos.slice(lg.offsets(v), lg.offsets(v + 1))
      assert(hubs.toSeq == hubs.sorted.distinct.toSeq, s"vertex $v's hubs must ascend: ${hubs.toSeq}")
    }
    assert(lg.hubs(1).toSeq == (0 until 11).map(rank.order))
  }

  test("runs leave no persisted RDD behind") {
    val sc = spark.sparkContext
    val g  = GraphGen.grid(7, 7, seed = 63)
    val r  = Ranking.byApproxBetweenness(g)
    def assertNoneLeft(what: String): Unit =
      assert(sc.getPersistentRDDs.isEmpty, s"$what left ${sc.getPersistentRDDs.values.mkString(", ")}")
    Hybrid.run(spark, g, r, q = 2, psiTh = Double.PositiveInfinity, eta = 0, batchSize = 8)
    assertNoneLeft("a batched PLaNT run")
    val (_, hs) = Hybrid.run(spark, g, r, q = 2, psiTh = 0.0, batchSize = 8)
    assert(hs.switchPos > 0, "the Hybrid run must switch to DGLL")
    assertNoneLeft("a switching Hybrid.run")
    DGLL.run(spark, g, r, q = 2)
    assertNoneLeft("DGLL.run")
  }

  test("recordExchange meters broadcast and bitvector traffic") {
    val acc = new SimCluster.StatsAccum
    acc.recordExchange(labels = 100, q = 4, cleaned = true)
    assert(acc.bytesBroadcast == 100L * 12 * 3)
    assert(acc.bytesAllReduce == 13L * 2 * 4)
    assert(acc.syncs == 1)
    acc.recordExchange(labels = 10, q = 4, cleaned = false)
    assert(acc.syncs == 2)
    assert(acc.bytesAllReduce == 13L * 2 * 4) // unchanged without cleaning
  }

  test("recordExchange on a single node moves no label bytes") {
    val acc = new SimCluster.StatsAccum
    acc.recordExchange(labels = 50, q = 1, cleaned = true)
    assert(acc.bytesBroadcast == 0)
  }

  test("recordCommonTableBroadcast accounts the eta-hub replication") {
    val acc = new SimCluster.StatsAccum
    acc.recordCommonTableBroadcast(labels = 7, q = 5)
    assert(acc.bytesBroadcast == 7L * 12 * 4)
  }
}
