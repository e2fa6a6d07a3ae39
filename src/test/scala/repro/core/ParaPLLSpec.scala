package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{GraphGen, TestGraphs}
import repro.TestUtil._

class ParaPLLSpec extends AnyFunSuite {

  for (seed <- 1 to 16)
    test(s"SparaPLL satisfies the cover property (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val res    = GLL.runParaPLL(g, r, threads = 4)
      TestUtil.assertCover(res.labeling, g)
    }

  for (seed <- 1 to 8)
    test(s"SparaPLL ALS is not materially below the CHL ALS (seed=$seed)") {
      // concurrent trees may occasionally cover a pair with a lower-ranked
      // hub, so on tiny graphs paraPLL can dip marginally below the CHL
      // count; at scale it is consistently larger (asserted in the bench)
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val spara  = GLL.runParaPLL(g, r, threads = 8).labeling
      val chl    = ReferenceCHL(g, r)
      assert(spara.labelCount >= (chl.labelCount * 0.9).toLong,
        s"paraPLL ${spara.labelCount} far below CHL ${chl.labelCount}")
    }

  test("single-threaded SparaPLL without rank queries still covers") {
    val g = TestGraphs.randomConnected(50, 20, 6, seed = 31)
    val r = TestUtil.rankingFor(g, 1)
    TestUtil.assertCover(GLL.runParaPLL(g, r, threads = 1).labeling, g)
  }

  test("SparaPLL respects R: canonical labels are a subset of its output") {
    // the canonical hub of each pair is generated by the snapshot trick
    val g = GraphGen.preferentialAttachment(50, 3, seed = 32)
    val r = TestUtil.rankingFor(g, 2)
    val spara = GLL.runParaPLL(g, r, threads = 1).labeling
    TestUtil.assertRespectsR(spara, g, r)
  }

  test("SparaPLL rejects a thread count below 1") {
    val g = GraphGen.grid(4, 4)
    intercept[IllegalArgumentException](GLL.runParaPLL(g, TestUtil.rankingFor(g, 0), threads = 0))
  }

  test("every vertex keeps its self label") {
    val g = GraphGen.grid(5, 5)
    val r = TestUtil.rankingFor(g, 0)
    val l = GLL.runParaPLL(g, r, threads = 4).labeling
    (0 until g.n).foreach(v => assert(l.tripleSet.contains((v, v, 0L))))
  }
}
