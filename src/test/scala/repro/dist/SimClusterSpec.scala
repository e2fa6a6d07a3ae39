package repro.dist

import repro.SparkSpec
import repro.graph.{GraphGen, Ranking}
import repro.TestUtil._

class SimClusterSpec extends SparkSpec {

  test("round gives node i the roots p = i (mod q) in [a, b), ascending") {
    val q = 4
    // [5, 19) starts off a multiple of q; [7, 9) holds fewer roots than
    // nodes, so nodes 1 and 2 get none; [3, 3) holds no root
    for ((a, b) <- Seq((0, 12), (5, 19), (7, 9), (3, 3))) {
      // each tree emits one label (vertex = its node, distance = its root)
      // and explores 10 vertices; each node marks its own id
      val (blocks, explored, marked) = SimCluster.round(spark.sparkContext, q, a, b) { pid =>
        (Array(pid), (p, sink) => { sink(pid, p.toLong); 10L })
      }
      assert(blocks.length == q && explored.length == q)
      assert(marked.map(_.toSeq).toSeq == (0 until q).map(Seq(_)), s"[$a, $b) marks")
      for (i <- 0 until q) {
        val nl    = blocks(i)
        val roots = (a until b).filter(_ % q == i)
        assert(nl.h.toSeq == roots && nl.d.toSeq == roots.map(_.toLong), s"[$a, $b) node $i")
        assert(nl.v.forall(_ == i), s"[$a, $b) node $i ran on another task")
        assert(explored(i) == 10L * roots.size, s"[$a, $b) node $i")
      }
    }
  }

  test("NodeLabels.merge merges interleaved blocks by root, each list ascending") {
    val rnd = new scala.util.Random(12)
    val n   = 9
    for (trial <- 0 until 20) {
      // the runs of roots 0 until 25, each in a block drawn at random, with
      // labels on distinct vertices at random distances
      val builders = Array.fill(1 + rnd.nextInt(4))(new NodeLabels.Builder)
      for (h <- 0 until 25) {
        val b = builders(rnd.nextInt(builders.length))
        rnd.shuffle((0 until n).toList).take(rnd.nextInt(n + 1)).foreach(v => b.add(v, h, 1L + rnd.nextInt(20)))
      }
      val blocks = builders.map(_.result())
      val t = NodeLabels.merge(blocks, n)
      // every label of the blocks, root by root, in each run's column order
      val all = for {
        h <- 0 until 25; k <- blocks.indices; i <- 0 until blocks(k).size if blocks(k).h(i) == h
      } yield (k, i)
      for (v <- 0 until n) {
        val want = all.filter { case (k, i) => blocks(k).v(i) == v }.map { case (k, i) => (blocks(k).h(i), blocks(k).d(i)) }
        val b = t.bufs(v)
        assert((0 until b.size).map(i => (b.hubs(i), b.dists(i))) == want, s"trial $trial, vertex $v")
        assert(want.map(_._1) == want.map(_._1).sorted, s"trial $trial, vertex $v: hubs must ascend")
      }
      assert(t.labelCount == blocks.map(_.size).sum, s"trial $trial")
    }
  }

  test("runs leave no persisted RDD behind") {
    val sc = spark.sparkContext
    val g  = GraphGen.grid(7, 7, seed = 63)
    val r  = Ranking.byApproxBetweenness(g)
    def assertNoneLeft(what: String): Unit =
      assert(sc.getPersistentRDDs.isEmpty, s"$what left ${sc.getPersistentRDDs.values.mkString(", ")}")
    Hybrid.run(spark, g, r, q = 2, psiTh = Double.MaxValue, eta = 0)
    assertNoneLeft("a batched PLaNT run")
    val (_, hs) = Hybrid.run(spark, g, r, q = 2, psiTh = 0.0)
    assert(hs.switchPos > 0, "the Hybrid run must switch to DGLL")
    assertNoneLeft("a switching Hybrid.run")
    DGLL.run(spark, g, r, q = 2)
    assertNoneLeft("DGLL.run")
  }

  test("a one-superstep DGLL run meters one exchange and its bitvectors") {
    // n <= beta: the whole queue is one superstep
    val g = GraphGen.grid(4, 4, seed = 68)
    val r = Ranking.byDegree(g)
    val q = 4
    val (_, s) = DGLL.run(spark, g, r, q, beta = 16)
    assert(s.syncs == 1 && s.labelsGenerated > 0)
    assert(s.bytesBroadcast == s.labelsGenerated * 12 * (q - 1))
    assert(s.bytesAllReduce == (s.labelsGenerated + 7) / 8 * 2 * q)
    // DparaPLL exchanges the same way but moves no bitvector
    val small = GraphGen.grid(2, 4, seed = 68)
    val (_, p) = DGLL.runParaPLL(spark, small, Ranking.byDegree(small), q)
    assert(p.syncs == 1 && p.labelsGenerated > 0)
    assert(p.bytesBroadcast == p.labelsGenerated * 12 * (q - 1))
    assert(p.bytesAllReduce == 0)
  }

  test("recordCommonTableBroadcast accounts the eta-hub replication") {
    // psiTh never exceeded: no switch, so the common table is the run's only
    // traffic and each top-eta hub's final label crosses to q - 1 nodes once
    val g   = GraphGen.preferentialAttachment(60, 3, seed = 67)
    val r   = Ranking.byDegree(g)
    val eta = 7
    val q   = 5
    val (l, s) = Hybrid.run(spark, g, r, q, psiTh = Double.MaxValue, eta = eta)
    val tableLabels = l.triples.count(t => r.posOf(t.h) < eta)
    assert(s.switchPos == -1 && tableLabels > 0)
    assert(s.bytesBroadcast == tableLabels.toLong * 12 * (q - 1))
    val (_, s1) = Hybrid.run(spark, g, r, q = 1, psiTh = Double.MaxValue, eta = eta)
    assert(s1.bytesBroadcast == 0, "a single node replicates nothing")
  }

  test("a DGLL run on a single node moves no label bytes") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 69)
    val (_, s) = DGLL.run(spark, g, Ranking.byDegree(g), q = 1)
    assert(s.labelsGenerated > 0 && s.syncs > 1)
    assert(s.bytesBroadcast == 0)
  }
}
