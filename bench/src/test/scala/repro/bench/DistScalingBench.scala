package repro.bench

import repro.SparkSpec
import repro.harness.{Datasets, DistScaling}

/** Supplemental distributed bench backing the fig. 8/9 claims recorded in
  * EXPERIMENTS.md: PLaNT communicates nothing and its (= Hybrid's = DGLL's)
  * label size is q-invariant, while DparaPLL's labeling degrades with q and
  * its exchange traffic grows.
  */
class DistScalingBench extends SparkSpec {

  test("distributed scaling sweep (fig. 8/9 claims)") {
    val qs = Seq(1, 2, 4, 8, 16)
    val scale = math.min(BenchConfig.scale, 0.5) // distributed sweep is 4 algos x 5 q
    BenchConfig.banner(s"Distributed scaling — qs=${qs.mkString(",")}, scale=$scale")
    val rows = Datasets.scalingSubset.map(n =>
      DistScaling.runOne(spark, Datasets.byName(n), scale, qs,
        psiTh = if (Datasets.byName(n).kind == "road") 500.0 else 100.0))
    println(DistScaling.format(rows))

    rows.foreach { row =>
      val byAlgo = row.cells.groupBy(_.algo)
      // CHL output is q-invariant for PLaNT / Hybrid / DGLL
      Seq("PLaNT", "Hybrid", "DGLL").foreach { a =>
        val alss = byAlgo(a).map(_.als).distinct
        assert(alss.size == 1, s"${row.dataset}/$a ALS varies with q: $alss")
      }
      // PLaNT never exchanges labels
      byAlgo("PLaNT").foreach(c => assert(c.stats.bytesBroadcast == 0, row.dataset))
      // DparaPLL's labeling is never smaller than the CHL and degrades with q
      val chl = byAlgo("PLaNT").head.als
      byAlgo("DparaPLL").foreach(c => assert(c.als >= chl - 1e-9, row.dataset))
      val dpByQ = byAlgo("DparaPLL").sortBy(_.q).map(_.als)
      assert(dpByQ.last >= dpByQ.head - 1e-9, s"${row.dataset}: DparaPLL ALS should not shrink with q")
      // Hybrid broadcasts no more than DGLL (communication avoidance)
      qs.filter(_ > 1).foreach { q =>
        val h = byAlgo("Hybrid").find(_.q == q).get
        val d = byAlgo("DGLL").find(_.q == q).get
        assert(h.stats.bytesBroadcast <= d.stats.bytesBroadcast,
          s"${row.dataset} q=$q: Hybrid bcast ${h.stats.bytesBroadcast} > DGLL ${d.stats.bytesBroadcast}")
      }
    }
  }
}
