package repro.dist

import repro.{SparkSpec, TestUtil}
import scala.collection.mutable.ArrayBuffer
import repro.core.{DijkstraScratch, LabelBuffers, ReferencePlant, SeqPLL}
import repro.graph.{CsrGraph, GraphGen, Ranking, TestGraphs}
import repro.TestUtil._

class PlantSpec extends SparkSpec {

  /** The common label table: the final labels of the top-`eta` hubs. */
  private def topHubTable(g: CsrGraph, r: Ranking, eta: Int): LabelBuffers = {
    val seq = SeqPLL.run(g, r).labeling
    val hc  = new LabelBuffers(g.n, threadSafe = false)
    for (v <- 0 until g.n; k <- seq.offsets(v) until seq.offsets(v + 1) if seq.hubPos(k) < eta)
      hc.add(v, seq.hubPos(k), seq.hubDist(k))
    hc
  }

  for (seed <- 1 to 16)
    test(s"PLaNT outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val (l, stats) = Plant.run(spark, g, r, q = 1 + seed % 4)
      TestUtil.assertCanonical(l, g, r)
      TestUtil.assertCover(l, g)
      assert(stats.redundantRemoved == 0, "PLaNT must not need cleaning")
    }

  test("PLaNT communicates zero label bytes") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 41)
    val r = Ranking.byDegree(g)
    val (_, stats) = Plant.run(spark, g, r, q = 4)
    assert(stats.bytesBroadcast == 0 && stats.bytesAllReduce == 0 && stats.syncs == 0)
  }

  for (q <- Seq(1, 2, 4, 8))
    test(s"PLaNT labeling is identical for q=$q") {
      val g = GraphGen.grid(6, 6, seed = 42)
      val r = Ranking.byApproxBetweenness(g)
      val (l, _) = Plant.run(spark, g, r, q)
      assert(l.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
    }

  test("label partitioning: every node stores only hubs it owns") {
    val g = GraphGen.preferentialAttachment(80, 3, seed = 43)
    val r = Ranking.byDegree(g)
    val q = 4
    val (l, stats) = Plant.run(spark, g, r, q)
    assert(stats.perNodeLabels.length == q)
    assert(stats.perNodeLabels.sum == l.labelCount)
    // circular split keeps nodes roughly balanced on this skew-free count
    assert(stats.perNodeLabels.forall(_ > 0))
  }

  test("PLaNT explores at least as much as PLL (no tree pruning)") {
    val g = GraphGen.grid(7, 7, seed = 44)
    val r = Ranking.byApproxBetweenness(g)
    val seq = SeqPLL.run(g, r)
    val (_, stats) = Plant.run(spark, g, r, q = 2)
    assert(stats.explored >= seq.explored,
      s"PLaNT explored ${stats.explored} < PLL ${seq.explored}")
  }

  test("early termination: low-ranked roots do not explore the full graph") {
    // a path graph ranked left-to-right: the lowest-ranked root's tree must
    // stop as soon as all frontier ancestors outrank it
    val n = 50
    val g = repro.graph.CsrGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1, 1)))
    val r = identityRanking(n)
    val scratch = new DijkstraScratch(n)
    var labels = 0
    val explored = PlantTree.build(g, r, root = 0, hc = null, scratch, (_, _) => labels += 1)
    // root 0 is the global minimum rank: only its self label, and the tree
    // terminates after visiting its frontier (not all 50 vertices)
    assert(labels == 1)
    assert(explored < n, s"explored $explored of $n — early termination failed")
  }

  test("PlantTree picks the highest-ranked ancestor among tied paths") {
    // two equal-length 0→3 paths via 1 (rank high) and 2 (rank low);
    // tree rooted at 3 must see ancestor 1 for vertex 0 — vertices are
    // ranked 3 > 1 > 2 > 0 so hub 3 labels 0 regardless, but hub 1's own
    // redundancy logic is what the reference comparison pins down
    val g = repro.graph.CsrGraph.fromEdges(4, Seq((0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)))
    val r = new Ranking(Array(0, 2, 1, 3)) // rank: v3=3, v1=2, v2=1, v0=0
    val (l, _) = Plant.run(spark, g, r, q = 1)
    TestUtil.assertCanonical(l, g, r)
  }

  for ((name, g, r) <- Seq(
         { val g = GraphGen.preferentialAttachment(300, 3, seed = 46); ("300-vertex BA", g, Ranking.byDegree(g)) },
         { val g = GraphGen.grid(8, 8, seed = 47); ("8x8 grid", g, Ranking.byApproxBetweenness(g)) }))
    test(s"common-table pruning keeps every tree's labels and explores less ($name)") {
      // the table holds the final labels of the top-eta hubs, all of which
      // outrank every root planted with it
      val eta = 16
      val hc  = topHubTable(g, r, eta)
      val scratch = new DijkstraScratch(g.n)
      def plant(root: Int, table: LabelBuffers): (Seq[(Int, Long)], Long) = {
        val out = ArrayBuffer.empty[(Int, Long)]
        val explored = PlantTree.build(g, r, root, table, scratch, (v, d) => out += ((v, d)))
        (out.toSeq, explored)
      }
      var exploredWith, exploredWithout = 0L
      for (p <- eta until g.n) {
        val root = r.order(p)
        val (pruned, e1) = plant(root, hc)
        val (full, e2)   = plant(root, null)
        assert(pruned == full, s"root $root")
        exploredWith += e1; exploredWithout += e2
      }
      assert(exploredWith < exploredWithout, s"explored $exploredWith with the table, $exploredWithout without")
    }

  // Drawn cases against the plain PLaNT of the test sources (binary heap,
  // vertex-id ancestors, a settled flag): weights in [1, 3] make many
  // equal-length paths, so the tie rule fires; each root is planted with no
  // table and, below the top eta = 4 hubs, with their common table.
  for (seed <- 1 to 8) {
    val rnd = new scala.util.Random(seed)
    val n   = 60 + rnd.nextInt(141)
    val g   =
      if (rnd.nextBoolean()) TestGraphs.randomSparse(n, 2 * n, maxW = 3, seed)
      else TestGraphs.randomConnected(n, extra = n, maxW = 3, seed)
    val rankBy = rnd.nextInt(3)
    test(s"PlantTree settles, emits and stops like ReferencePlant (drawn case $seed: n=$n)") {
      val r = rankBy match {
        case 0 => Ranking.byDegree(g)
        case 1 => Ranking.byApproxBetweenness(g, samples = 8, seed = seed)
        case _ => TestUtil.randomRanking(g.n, seed)
      }
      val eta = 4
      val hc  = topHubTable(g, r, eta)
      val scratch = new DijkstraScratch(g.n)
      for (p <- 0 until g.n; table <- Seq(null, hc) if table == null || p >= eta) {
        val root = r.order(p)
        val got, want = ArrayBuffer.empty[(Int, Long)]
        val e1 = PlantTree.build(g, r, root, table, scratch, (v, d) => got += ((v, d)))
        val e2 = ReferencePlant.build(g, r, root, table, (v, d) => want += ((v, d)))
        val what = s"root $root at position $p, ${if (table == null) "no table" else "top-4 table"}"
        assert(e1 == e2, what)
        assert(got == want, what)
      }
    }
  }

  test("batched planting matches single-batch planting") {
    val g = GraphGen.preferentialAttachment(70, 3, seed = 45)
    val r = Ranking.byDegree(g)
    // a finite psiTh is read after every batch, so the run plants in
    // batches of 12 (4q) and, never exceeding it, does not switch
    val (a, as) = Hybrid.run(spark, g, r, q = 3, psiTh = Double.MaxValue, eta = 0)
    assert(as.switchPos == -1)
    val (b, _) = Plant.run(spark, g, r, q = 3)
    assert(a.tripleSet == b.tripleSet)
  }
}
