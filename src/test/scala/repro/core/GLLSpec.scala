package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.{GraphGen, TestGraphs}
import repro.TestUtil._
import scala.jdk.CollectionConverters._

class GLLSpec extends AnyFunSuite {

  for (seed <- 1 to 16)
    test(s"GLL (alpha=4) outputs the canonical labeling (seed=$seed)") {
      val (g, _) = TestUtil.graphFor(seed)
      val r      = TestUtil.rankingFor(g, seed)
      val res    = GLL.run(g, r, threads = 4, alpha = 4.0)
      TestUtil.assertCanonical(res.labeling, g, r)
      TestUtil.assertCover(res.labeling, g)
    }

  for (alpha <- Seq(1.0, 2.0, 8.0, 32.0))
    test(s"GLL canonical for synchronization threshold alpha=$alpha") {
      val g = GraphGen.preferentialAttachment(70, 3, seed = 21)
      val r = TestUtil.rankingFor(g, 2)
      TestUtil.assertCanonical(GLL.run(g, r, threads = 4, alpha = alpha).labeling, g, r)
    }

  for (threads <- Seq(1, 2, 8, 16))
    test(s"GLL canonical at $threads threads") {
      val g = GraphGen.grid(6, 7, seed = threads)
      val r = TestUtil.rankingFor(g, threads)
      TestUtil.assertCanonical(GLL.run(g, r, threads, alpha = 2.0).labeling, g, r)
    }

  test("small alpha produces more supersteps than LCC's single one") {
    val g = GraphGen.preferentialAttachment(100, 3, seed = 23)
    val r = TestUtil.rankingFor(g, 3)
    val gll = GLL.run(g, r, threads = 2, alpha = 1.0)
    assert(gll.supersteps > 1, s"expected multiple supersteps, got ${gll.supersteps}")
  }

  test("GLL and LCC produce the same labeling") {
    val g = TestGraphs.randomConnected(90, 50, 8, seed = 24)
    val r = TestUtil.rankingFor(g, 1)
    assert(GLL.run(g, r, 4, 4.0).labeling.tripleSet == GLL.runLCC(g, r, 4).labeling.tripleSet)
  }

  test("GLL label accounting: generated = final + removed") {
    val g = GraphGen.preferentialAttachment(80, 4, seed = 25)
    val r = TestUtil.rankingFor(g, 0)
    val res = GLL.run(g, r, threads = 8, alpha = 2.0)
    assert(res.labelsGenerated == res.labeling.labelCount + res.redundantRemoved)
  }

  test("construct and clean times partition the run") {
    val g = GraphGen.grid(8, 8)
    val r = TestUtil.rankingFor(g, 2)
    val res = GLL.run(g, r, threads = 4, alpha = 4.0)
    assert(res.constructMs + res.cleanMs <= res.timeMs + 50)
  }

  test("GLL and LCC reject a thread count below 1") {
    val g = GraphGen.grid(4, 4)
    val r = TestUtil.rankingFor(g, 0)
    intercept[IllegalArgumentException](GLL.run(g, r, threads = 0))
    intercept[IllegalArgumentException](GLL.runLCC(g, r, threads = 0))
  }

  test("GLL, LCC and SparaPLL reject a ranking of another graph's size") {
    val g = GraphGen.grid(10, 10)
    val r = identityRanking(25)
    for (build <- Seq[() => GLL.Result](() => GLL.run(g, r, threads = 4), () => GLL.runLCC(g, r, 4),
                                        () => GLL.runParaPLL(g, r, 4))) {
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("ranking of 25 vertices for a graph of 100"), e.getMessage)
    }
  }

  test("GLL, LCC and SparaPLL leave no thread running") {
    val g = GraphGen.grid(8, 8)
    val r = TestUtil.rankingFor(g, 0)
    def live = Thread.getAllStackTraces.keySet.asScala.filter(_.isAlive).toSet
    val before = live
    GLL.run(g, r, threads = 4, alpha = 1.0)
    GLL.runLCC(g, r, 4)
    GLL.runParaPLL(g, r, 4)
    val deadline = System.nanoTime() + 5000000000L
    while ((live -- before).nonEmpty && System.nanoTime() < deadline) Thread.sleep(10)
    assert((live -- before).isEmpty, s"still running: ${(live -- before).map(_.getName)}")
  }

  test("GLL rejects an alpha that is not positive") {
    val g = GraphGen.grid(4, 4)
    val r = TestUtil.rankingFor(g, 0)
    for (alpha <- Seq(0.0, -1.0, Double.NegativeInfinity, Double.NaN)) {
      val e = intercept[IllegalArgumentException](GLL.run(g, r, threads = 2, alpha))
      assert(e.getMessage.contains("alpha must be positive"), s"alpha=$alpha")
    }
  }

  test("GLL ALS equals the reference CHL ALS") {
    val g = GraphGen.preferentialAttachment(60, 3, seed = 27)
    val r = TestUtil.rankingFor(g, 2)
    val res = GLL.run(g, r, 4, 4.0)
    assert(math.abs(res.labeling.als - ReferenceCHL(g, r).als) < 1e-12)
  }
}
