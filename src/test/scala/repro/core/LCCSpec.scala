package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{GraphGen, TestGraphs}
import repro.TestUtil._

class LCCSpec extends AnyFunSuite {

  for (seed <- 1 to 20)
    test(s"LCC (construct+clean) outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val res    = GLL.runLCC(g, r, threads = 4)
      TestUtil.assertCanonical(res.labeling, g, r)
      TestUtil.assertCover(res.labeling, g)
    }

  for (threads <- Seq(1, 2, 8))
    test(s"LCC canonical at $threads threads") {
      val g = GraphGen.preferentialAttachment(80, 3, seed = threads)
      val r = TestUtil.rankingFor(g, threads + 1)
      TestUtil.assertCanonical(GLL.runLCC(g, r, threads).labeling, g, r)
    }

  test("LCC with 1 thread generates no redundant labels to clean") {
    val g = TestGraphs.randomConnected(40, 15, 6, seed = 3)
    val r = TestUtil.rankingFor(g, 2)
    val res = GLL.runLCC(g, r, threads = 1)
    assert(res.redundantRemoved == 0,
      s"sequential order should already be canonical, removed ${res.redundantRemoved}")
  }

  test("LCC runs a single superstep") {
    val g = GraphGen.grid(5, 5)
    val r = TestUtil.rankingFor(g, 3)
    assert(GLL.runLCC(g, r, threads = 4).supersteps == 1)
  }

  test("LCC label accounting: generated = final + removed") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 5)
    val r = TestUtil.rankingFor(g, 1)
    val res = GLL.runLCC(g, r, threads = 8)
    assert(res.labelsGenerated == res.labeling.labelCount + res.redundantRemoved)
  }

  test("LCC matches seqPLL exactly on a larger mixed graph") {
    val g = TestGraphs.randomConnected(120, 80, 9, seed = 11)
    val r = TestUtil.rankingFor(g, 2)
    assert(GLL.runLCC(g, r, 8).labeling.tripleSet == SeqPLL.run(g, r).labeling.tripleSet)
  }
}
