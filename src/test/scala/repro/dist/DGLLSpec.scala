package repro.dist

import repro.{SparkSpec, TestUtil}
import repro.core.{DijkstraScratch, PrunedDijkstra, SeqPLL}
import repro.graph.{GraphGen, Ranking, TestGraphs}
import repro.TestUtil._

class DGLLSpec extends SparkSpec {

  for (seed <- 1 to 12)
    test(s"DGLL outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val (l, _) = DGLL.run(spark, g, r, q = 1 + seed % 4)
      TestUtil.assertCanonical(l, g, r)
      TestUtil.assertCover(l, g)
    }

  for (q <- Seq(1, 2, 4, 8))
    test(s"DGLL canonical and q-invariant at q=$q") {
      val g = GraphGen.preferentialAttachment(70, 3, seed = 51)
      val r = Ranking.byDegree(g)
      val (l, _) = DGLL.run(spark, g, r, q)
      assert(l.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
    }

  for (beta <- Seq(2, 4, 8))
    test(s"DGLL canonical for superstep growth beta=$beta") {
      val g = GraphGen.grid(6, 6, seed = 52)
      val r = Ranking.byApproxBetweenness(g)
      val (l, _) = DGLL.run(spark, g, r, q = 3, beta = beta)
      TestUtil.assertCanonical(l, g, r)
    }

  test("DGLL label exchange traffic is metered") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 53)
    val r = Ranking.byDegree(g)
    val (l, stats) = DGLL.run(spark, g, r, q = 4)
    assert(stats.bytesBroadcast > 0, "superstep exchange must be accounted")
    assert(stats.bytesAllReduce > 0, "cleaning bitvectors must be accounted")
    assert(stats.syncs >= 1)
    assert(stats.labelsGenerated >= l.labelCount)
  }

  test("DGLL cleaning removes the cross-node redundant labels") {
    val g = GraphGen.preferentialAttachment(100, 4, seed = 54)
    val r = Ranking.byDegree(g)
    val (l, stats) = DGLL.run(spark, g, r, q = 8)
    assert(stats.labelsGenerated == l.labelCount + stats.redundantRemoved)
  }

  test("DGLL partitions label storage by hub owner") {
    val g = GraphGen.preferentialAttachment(80, 3, seed = 55)
    val r = Ranking.byDegree(g)
    val q = 4
    val (l, stats) = DGLL.run(spark, g, r, q)
    assert(stats.perNodeLabels.length == q)
    assert(stats.perNodeLabels.sum == l.labelCount)
    for (i <- 0 until q) assert(stats.perNodeLabels(i) == l.hubPos.count(_ % q == i), s"node $i")
  }

  for (q <- Seq(1, 3, 16))
    test(s"a superstep's OR of node marks is one DQ_Clean pass over all its witnesses (q=$q)") {
      val sc = spark.sparkContext
      val g  = GraphGen.preferentialAttachment(120, 4, seed = 57)
      val r  = Ranking.byDegree(g)
      val n  = g.n
      var marked = 0
      // switch 0 is DGLL's first superstep; at 24 a Hybrid has planted the
      // roots before it, and node i cleans with the block it planted
      for (switch <- Seq(0, 24)) {
        val (prior, _) = SimCluster.round(sc, q, 0, switch) { _ =>
          val scratch = new DijkstraScratch(n)
          (p, sink) => PlantTree.build(g, r, r.order(p), null, scratch, sink)
        }
        // one superstep over the roots left, pruned as Hybrid prunes its first
        val (candidates, _) = SimCluster.round(sc, q, switch, n) { pid =>
          val own     = NodeLabels.merge(Array(prior(pid)), n)
          val scratch = new DijkstraScratch(n)
          (p, sink) => PrunedDijkstra.buildTree(g, r, r.order(p), Array(own), rankQueries = true, scratch,
            sink = (v, d) => { own.add(v, p, d); sink(v, d) })
        }
        val cand    = NodeLabels.merge(candidates, n).toLabeling(r)
        val bcPrior = sc.broadcast(prior)
        val marks   = DGLL.cleanCandidates(spark, bcPrior, cand, q)
        bcPrior.destroy()
        // every witness in one place: each node's planted block and every candidate
        val lists = Array.fill(n)(scala.collection.mutable.Map.empty[Int, Long])
        for (b <- prior ++ candidates; i <- 0 until b.size) lists(b.v(i))(b.h(i)) = b.d(i)
        for (v <- 0 until n; k <- cand.offsets(v) until cand.offsets(v + 1)) {
          val h = cand.hubPos(k); val delta = cand.hubDist(k); val lh = lists(r.order(h))
          val brute = lists(v).exists { case (w, dv) => w < h && lh.get(w).exists(dv + _ <= delta) }
          assert(marks(k) == brute, s"switch $switch: label $k = ($v, $h, $delta)")
        }
        assert(marks.length == cand.labelCount)
        marked += marks.count(identity)
      }
      // one node's trees prune with every label before them, as seqPLL's do
      if (q == 1) assert(marked == 0, s"$marked redundant on one node")
      else assert(marked > 0, "no candidate was redundant")
    }

  test("superstepSizes grow geometrically and cover the queue") {
    val sizes = DGLL.superstepSizes(1000, beta = 8)
    assert(sizes.sum >= 1000)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => b >= a })
    assert(sizes.length <= math.ceil(math.log(1000.0) / math.log(8.0)).toInt + 1)
  }

  test("superstepSizes handles tiny and empty queues") {
    assert(DGLL.superstepSizes(0, 8).isEmpty)
    assert(DGLL.superstepSizes(1, 8).sum >= 1)
    assert(DGLL.superstepSizes(5, 8).sum >= 5)
  }

  test("DGLL rejects a superstep growth beta below 2") {
    val g = GraphGen.grid(4, 4)
    intercept[IllegalArgumentException](DGLL.run(spark, g, Ranking.byDegree(g), q = 2, beta = 1))
  }

  test("DGLL and DparaPLL reject a node count q below 1") {
    val g = GraphGen.grid(4, 4)
    val r = Ranking.byDegree(g)
    for (q <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](DGLL.run(spark, g, r, q))
      assert(e.getMessage.contains("q must be at least 1"))
      intercept[IllegalArgumentException](DGLL.runParaPLL(spark, g, r, q))
    }
  }

  test("disconnected graphs survive the distributed path") {
    val g = TestGraphs.randomSparse(40, 30, 5, seed = 56)
    val r = randomRanking(g.n, 56)
    val (l, _) = DGLL.run(spark, g, r, q = 4)
    TestUtil.assertCover(l, g)
    TestUtil.assertCanonical(l, g, r)
  }
}
