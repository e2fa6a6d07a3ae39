package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Dijkstra

class DatasetsSpec extends AnyFunSuite {

  test("all 12 paper datasets have analogs, in Table 2 order") {
    assert(Datasets.all.map(_.paperName) == Seq(
      "CAL", "EAS", "CTR", "USA", "SKIT", "WND", "AUT", "YTB", "ACT", "BDU", "POK", "LIJ"))
  }

  test("road analogs are grids, scale-free analogs are skewed") {
    Datasets.all.foreach { spec =>
      val g = spec.graph(scale = 0.2)
      assert(g.n > 0 && g.m > 0, spec.name)
      val avgDeg = 2.0 * g.m / g.n
      // skew only shows once n well exceeds the attachment count; the
      // dense tiny analogs (act/pok at low scale) are naturally uniform
      // pok-lite is deliberately Erdős–Rényi (dense, uniform degrees)
      if (spec.kind == "scale-free" && spec.name != "pok-lite" && g.n > 8 * avgDeg) {
        val maxDeg = (0 until g.n).map(g.degree).max
        assert(maxDeg > 2.0 * avgDeg, s"${spec.name} not skewed")
      }
    }
  }

  test("relative size ordering of road analogs matches the paper") {
    val ns = Seq("cal-lite", "eas-lite", "ctr-lite", "usa-lite")
      .map(n => Datasets.byName(n).graph(0.05).n)
    assert(ns == ns.sorted && ns.distinct == ns)
  }

  test("rankings are valid permutations for every dataset") {
    Datasets.all.foreach { spec =>
      val g = spec.graph(0.02)
      val r = spec.ranking(g)
      assert(r.rankOf.sorted.sameElements(0 until g.n), spec.name)
    }
  }

  test("byName rejects unknown datasets") {
    assertThrows[NoSuchElementException](Datasets.byName("nope"))
  }

  test("scaled graphs stay connected for grid and BA analogs") {
    Seq("cal-lite", "skit-lite", "act-lite").foreach { n =>
      val g = Datasets.byName(n).graph(0.05)
      assert(Dijkstra.sssp(g, 0).count(_ < Dijkstra.Inf) == g.n, n)
    }
  }

  test("Table2 harness emits one row per dataset with positive stats") {
    val rows = Table2.run(scale = 0.02)
    assert(rows.size == 12)
    rows.foreach(r => assert(r.n > 0 && r.m > 0 && r.paperN > 0))
    assert(Table2.format(rows).linesIterator.size == 13)
    assert(Table2.check(rows).isEmpty, Table2.check(rows))
  }
}
