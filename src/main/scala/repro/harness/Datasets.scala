package repro.harness

import repro.graph.{CsrGraph, GraphGen, Ranking}

/** Synthetic `*-lite` analogs of the paper's 12 evaluation datasets
  * (Table 2), scaled ~500× down so a single machine completes the full
  * sweep in minutes (substitution recorded in DESIGN.md §3).
  *
  * `scale = 1.0` is bench size; unit tests pass smaller scales. Road
  * networks are 2-D grids ranked by approximate betweenness; scale-free
  * graphs are preferential-attachment (Erdős–Rényi for the dense POK
  * analog) ranked by degree — the paper's §7.1.1 choices.
  */
final case class DatasetSpec(
    name: String,
    paperName: String,
    kind: String, // "road" | "scale-free"
    paperN: Long,
    paperM: Long,
    gen: Double => CsrGraph,
) {
  def graph(scale: Double = 1.0): CsrGraph = gen(scale)

  def ranking(g: CsrGraph): Ranking =
    if (kind == "road") Ranking.byApproxBetweenness(g, samples = 16, seed = 17)
    else Ranking.byDegree(g)
}

object Datasets {

  private def gridSpec(name: String, paperName: String, paperN: Long, paperM: Long,
                       side: Int, seed: Long) =
    DatasetSpec(name, paperName, "road", paperN, paperM,
      scale => {
        val s = math.max(4, math.round(side * math.sqrt(scale)).toInt)
        GraphGen.grid(s, s, seed)
      })

  private def baSpec(name: String, paperName: String, paperN: Long, paperM: Long,
                     n: Int, attach: Int, seed: Long) =
    DatasetSpec(name, paperName, "scale-free", paperN, paperM,
      scale => {
        val nn = math.max(attach + 2, math.round(n * scale).toInt)
        GraphGen.preferentialAttachment(nn, attach, seed)
      })

  /** All 12 analogs, in the paper's Table 2 order. */
  val all: Seq[DatasetSpec] = Seq(
    gridSpec("cal-lite", "CAL", 1890815L, 4657742L, side = 58, seed = 101),
    gridSpec("eas-lite", "EAS", 3598623L, 8778114L, side = 78, seed = 102),
    gridSpec("ctr-lite", "CTR", 14081816L, 34292496L, side = 108, seed = 103),
    gridSpec("usa-lite", "USA", 23947347L, 58333344L, side = 132, seed = 104),
    baSpec("skit-lite", "SKIT", 192244L, 636643L, n = 3000, attach = 3, seed = 105),
    baSpec("wnd-lite", "WND", 325729L, 1497134L, n = 3200, attach = 2, seed = 106),
    baSpec("aut-lite", "AUT", 227320L, 814134L, n = 2200, attach = 4, seed = 107),
    baSpec("ytb-lite", "YTB", 1134890L, 2987624L, n = 5000, attach = 3, seed = 108),
    baSpec("act-lite", "ACT", 382219L, 33115812L, n = 1500, attach = 20, seed = 109),
    baSpec("bdu-lite", "BDU", 2141300L, 17794839L, n = 4000, attach = 8, seed = 110),
    DatasetSpec("pok-lite", "POK", "scale-free", 1632803L, 30622564L,
      scale => GraphGen.erdosRenyi(math.max(32, math.round(3000 * scale).toInt), avgDeg = 20, seed = 111)),
    baSpec("lij-lite", "LIJ", 4847571L, 68993773L, n = 6000, attach = 10, seed = 112),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(
      throw new NoSuchElementException(s"unknown dataset $name; known: ${all.map(_.name).mkString(", ")}"))
}
