package repro

import repro.graph.GraphGen

class SynthDataGraphSpec extends SparkSpec {

  test("roadGraphEdges round-trips through CsrGraph.fromDataFrame") {
    val df = SynthData.roadGraphEdges(spark, 5, 6, seed = 3)
    val g  = SynthData.fromDataFrame(df, n = 30)
    val direct = GraphGen.grid(5, 6, seed = 3)
    assert(g.n == direct.n && g.m == direct.m)
    assert((0 until g.n).forall(v => g.degree(v) == direct.degree(v)))
  }

  test("scaleFreeGraphEdges round-trips through CsrGraph.fromDataFrame") {
    val df = SynthData.scaleFreeGraphEdges(spark, 60, 3, seed = 5)
    val g  = SynthData.fromDataFrame(df, n = 60)
    val direct = GraphGen.preferentialAttachment(60, 3, seed = 5)
    assert(g.n == direct.n && g.m == direct.m)
  }

  test("edge DataFrames emit each undirected edge once") {
    val df = SynthData.roadGraphEdges(spark, 4, 4)
    assert(df.count() == GraphGen.grid(4, 4).m)
  }

  test("edge DataFrames are deterministic in the seed") {
    val a = SynthData.scaleFreeGraphEdges(spark, 40, 2, seed = 9).collect().toSeq
    val b = SynthData.scaleFreeGraphEdges(spark, 40, 2, seed = 9).collect().toSeq
    assert(a == b)
  }

  test("fromDataFrame infers n from the edge list") {
    import spark.implicits._
    val df = Seq((0, 4, 2), (1, 2, 3)).toDF("src", "dst", "w")
    val g  = SynthData.fromDataFrame(df)
    assert(g.n == 5)
  }
}
