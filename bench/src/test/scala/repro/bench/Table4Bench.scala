package repro.bench

import repro.SparkSpec
import repro.harness.Table4
import repro.query.QueryModes

/** Reproduces Table 4: query throughput, latency and label-storage memory
  * of QLSN / QFDL / QDOL on a 16-node simulated cluster.
  *
  * Paper-shape assertions: QLSN replicates memory q-fold and has the lowest
  * latency; QFDL stores each label once; QDOL sits in between on memory and
  * between QLSN and QFDL on latency.
  */
class Table4Bench extends SparkSpec {

  test("Table 4: query modes on q=16") {
    BenchConfig.banner(s"Table 4 — query modes (q=${BenchConfig.q}, batch=${BenchConfig.queryBatch})")
    val rows = Table4.run(spark, BenchConfig.scale, BenchConfig.q,
      BenchConfig.queryBatch, BenchConfig.threads)
    println(Table4.format(rows))

    val z = QueryModes.zeta(BenchConfig.q)
    rows.foreach { r =>
      // memory model: QLSN = q * QFDL; QFDL < QDOL < QLSN
      assert(r.qlsn.memBytesTotal == BenchConfig.q.toLong * r.qfdl.memBytesTotal, r.dataset)
      assert(r.qdol.memBytesTotal > r.qfdl.memBytesTotal, r.dataset)
      assert(r.qdol.memBytesTotal < r.qlsn.memBytesTotal, r.dataset)
      // latency model: QLSN (no network) < QDOL (P2P) < QFDL (broadcast)
      // unless per-query compute is large enough for QFDL's 1/q split to win
      assert(r.qlsn.latencyMicros < r.qdol.latencyMicros, r.dataset)
      // throughput: distributing queries beats the single-node QLSN
      assert(r.qdol.throughputQps > 0 && r.qfdl.throughputQps > 0 && r.qlsn.throughputQps > 0)
    }
    assert(z * (z - 1) / 2 <= BenchConfig.q)
  }
}
