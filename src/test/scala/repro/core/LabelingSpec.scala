package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Dijkstra, GraphGen, LongMinHeap, Ranking}
import repro.TestUtil._

class LabelingSpec extends AnyFunSuite {

  private val rank = identityRanking(4) // rank(v) = v, so 3 outranks all

  private def mk(ts: (Int, Int, Long)*): Labeling = fromTriples(rank, ts)

  test("query over a single common hub") {
    val l = mk((0, 3, 5), (1, 3, 7))
    assert(l.query(0, 1) == 12)
  }

  test("query takes the minimum over several common hubs") {
    val l = mk((0, 3, 5), (1, 3, 7), (0, 2, 1), (1, 2, 2))
    assert(l.query(0, 1) == 3)
  }

  test("query returns Inf with no common hub") {
    val l = mk((0, 3, 5), (1, 2, 7))
    assert(l.query(0, 1) == Dijkstra.Inf)
  }

  test("self query through a self label is zero") {
    val l = mk((0, 0, 0), (0, 3, 5))
    assert(l.query(0, 0) == 0)
  }

  test("labels are sorted by hub rank descending") {
    val l = mk((0, 1, 9), (0, 3, 5), (0, 2, 7))
    assert(l.hubs(0).toSeq == Seq(3, 2, 1))
    assert(l.dists(0).toSeq == Seq(5L, 7L, 9L))
  }

  test("labelCount, als and storageBytes") {
    val l = mk((0, 0, 0), (1, 1, 0), (1, 0, 4))
    assert(l.labelCount == 3)
    assert(l.als == 3.0 / 4)
    assert(l.storageBytes == 36)
  }

  test("tripleSet round-trips through fromTriples") {
    val ts = Set((0, 3, 5L), (1, 3, 7L), (2, 2, 0L))
    val l  = mk(ts.toSeq: _*)
    assert(l.tripleSet == ts)
  }

  test("empty labeling answers Inf everywhere") {
    val l = fromTriples(rank, Nil)
    assert(l.labelCount == 0)
    assert(l.query(0, 1) == Dijkstra.Inf)
    assert(l.query(2, 2) == Dijkstra.Inf)
  }

  test("distances stay with their hubs across distance pages") {
    // 300 vertices × 150 labels: 45,000 labels fill two pages, and the run
    // of vertex 218 crosses from the first into the second
    val r = identityRanking(300)
    val store = new LabelBuffers(300, threadSafe = false)
    for (v <- 0 until 300; p <- 0 until 150) store.add(v, p, 1000L * v + p)
    val l = store.toLabeling(r)
    assert(l.labelCount == 45000)
    for (v <- 0 until 300) assert(l.dists(v).toSeq == (0 until 150).map(1000L * v + _), s"vertex $v")
    assert(l.query(218, 219) == 1000L * 218 + 1000L * 219)
  }

  test("toLabeling rejects a list whose hubs do not ascend") {
    val descending = new LabelBuffers(4, threadSafe = false)
    descending.add(0, 0, 0); descending.add(2, 1, 3); descending.add(2, 0, 5)
    val e = intercept[IllegalArgumentException](descending.toLabeling(rank))
    assert(e.getMessage.contains("vertex 2"), e.getMessage)
    val repeated = new LabelBuffers(4, threadSafe = false)
    repeated.add(1, 2, 1); repeated.add(1, 2, 1)
    intercept[IllegalArgumentException](repeated.toLabeling(rank))
  }

  /** Checks [[Labeling.ownerSlices]]`(q)` of `l` label by label: slice `i`
    * holds, per vertex, exactly `l`'s labels with `hubPos % q == i`, hubs
    * ascending and each with its distance; the counts sum to `labelCount`;
    * the minimum of the slices' answers is `l.query` on every pair.
    * Returns the slices.
    */
  private def checkSlices(l: Labeling, q: Int, what: String): Array[Labeling] = {
    val slices = l.ownerSlices(q)
    assert(slices.length == q, what)
    assert(slices.map(_.labelCount).sum == l.labelCount, what)
    for (i <- 0 until q; v <- 0 until l.n) {
      val s = slices(i)
      val got = (s.offsets(v) until s.offsets(v + 1)).map(k => (s.hubPos(k), s.hubDist(k)))
      val want = (l.offsets(v) until l.offsets(v + 1)).filter(k => l.hubPos(k) % q == i)
        .map(k => (l.hubPos(k), l.hubDist(k)))
      assert(got == want, s"$what: slice $i, vertex $v")
      assert(got.map(_._1).sliding(2).forall(h => h.length < 2 || h(0) < h(1)), s"$what: slice $i, vertex $v")
    }
    for (u <- 0 until l.n; v <- 0 until l.n)
      assert(slices.map(_.query(u, v)).min == l.query(u, v), s"$what: query($u, $v)")
    slices
  }

  test("ownerSlices splits SeqPLL labelings by hub owner, for q in {1, 2, 3, 16} and q above the hub count") {
    var unreachable = 0
    for (seed <- 1 to 8) {
      val (g, family) = graphFor(seed)
      val l = SeqPLL.run(g, rankingFor(g, seed)).labeling
      for (q <- Seq(1, 2, 3, 16)) checkSlices(l, q, s"$family seed $seed, q=$q")
      val big = l.hubPos.max + 2
      assert(checkSlices(l, big, s"$family seed $seed, q=$big").exists(_.labelCount == 0))
      unreachable += (for (u <- 0 until l.n; v <- 0 until l.n if l.query(u, v) == Dijkstra.Inf) yield 1).size
    }
    assert(unreachable > 0, "the fixtures should include unreachable pairs")
  }

  test("ownerSlices(1) is the labeling, array for array") {
    val (g, _) = graphFor(6)
    val l = SeqPLL.run(g, rankingFor(g, 6)).labeling
    val s = l.ownerSlices(1).head
    assert(s.offsets.sameElements(l.offsets))
    assert(s.hubPos.sameElements(l.hubPos))
    assert((0 until l.labelCount.toInt).forall(k => s.hubDist(k) == l.hubDist(k)))
  }

  test("ownerSlices keeps each distance with its hub across distance pages") {
    // 300 vertices × 150 labels fill two distance pages; slice 0 of q=2
    // still has 22,500 labels, and q=1 keeps the page boundary in place
    val r = identityRanking(300)
    val store = new LabelBuffers(300, threadSafe = false)
    for (v <- 0 until 300; p <- 0 until 150) store.add(v, p, 1000L * v + p)
    val l = store.toLabeling(r)
    for (q <- Seq(1, 2, 3)) {
      val slices = l.ownerSlices(q)
      for (i <- 0 until q; v <- 0 until 300)
        assert(slices(i).dists(v).toSeq == (i until 150 by q).map(1000L * v + _), s"q=$q, slice $i, vertex $v")
    }
  }

  test("ownerSlices rejects a node count q below 1") {
    intercept[IllegalArgumentException](mk((0, 3, 5)).ownerSlices(0))
  }

  /** `l` written by an `ObjectOutputStream` and read back, with the number
    * of bytes written.
    */
  private def throughWire(l: Labeling): (Labeling, Int) = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(l)
    out.close()
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
    (in.readObject().asInstanceOf[Labeling], bytes.size)
  }

  /** Checks that `l` comes back from the wire column for column, and
    * returns what came back.
    */
  private def checkWire(l: Labeling, what: String): Labeling = {
    val (back, _) = throughWire(l)
    assert(back ne l, what)
    assert(back.rank.rankOf.sameElements(l.rank.rankOf), what)
    assert(back.offsets.sameElements(l.offsets), what)
    assert(back.hubPos.sameElements(l.hubPos), what)
    for (k <- 0 until l.labelCount.toInt) assert(back.hubDist(k) == l.hubDist(k), s"$what: label $k")
    back
  }

  test("the wire form keeps vertices with no labels and distances of 0, 2^31 and 2^40") {
    val r = identityRanking(6)
    val l = fromTriples(r, Seq((0, 0, 0L), (0, 5, 1L << 31), (2, 4, 1L << 40), (2, 0, 0L),
      (4, 5, (1L << 40) + 3), (4, 4, 0L), (4, 1, 1L << 31)))
    assert((0 until 6).map(v => l.offsets(v + 1) - l.offsets(v)) == Seq(2, 0, 2, 0, 3, 0))
    val back = checkWire(l, "mixed")
    assert(l.query(2, 4) == (1L << 40) && l.query(0, 4) == (1L << 31) + (1L << 40) + 3)
    for (u <- 0 until 6; v <- 0 until 6) assert(back.query(u, v) == l.query(u, v), s"query($u, $v)")
  }

  test("the wire form keeps runs that cross a distance page") {
    val r = identityRanking(300)
    val store = new LabelBuffers(300, threadSafe = false)
    for (v <- 0 until 300; p <- 0 until 150) store.add(v, p, 1000L * v + p)
    val l = store.toLabeling(r)
    checkWire(l, "45,000 labels")
  }

  test("the wire form keeps every owner slice of SeqPLL labelings at q=7, and an empty labeling") {
    for (seed <- 1 to 8) {
      val (g, family) = graphFor(seed)
      val l = SeqPLL.run(g, rankingFor(g, seed)).labeling
      checkWire(l, s"$family seed $seed")
      for ((s, i) <- l.ownerSlices(7).zipWithIndex) checkWire(s, s"$family seed $seed, slice $i of 7")
    }
    checkWire(fromTriples(rank, Nil), "no labels")
    checkWire(fromTriples(identityRanking(0), Nil), "no vertices")
  }

  test("the wire form of the 60x60 grid's CHL takes under 5 B/label") {
    val g = GraphGen.grid(60, 60, seed = 104)
    val l = SeqPLL.run(g, Ranking.byApproxBetweenness(g, samples = 16, seed = 17)).labeling
    val bytes = throughWire(l)._2
    val perLabel = bytes.toDouble / l.labelCount
    assert(perLabel < 5.0, f"$bytes B for ${l.labelCount} labels: $perLabel%.2f B/label")
  }

  test("query is symmetric") {
    val l = mk((0, 3, 5), (1, 3, 7), (0, 2, 2), (1, 2, 4))
    assert(l.query(0, 1) == l.query(1, 0))
  }

  /** The dense snapshot of `L_h` the cleaning kernel reads, hubs given as
    * vertices of `r` and stored by rank position.
    */
  private def snapshot(r: Ranking, hubs: Array[Int], dists: Array[Long]): Array[Long] = {
    val scratch = new DijkstraScratch(r.n)
    hubs.indices.foreach(i => scratch.snap(r.posOf(hubs(i)), dists(i)))
    scratch.rootDist
  }

  /** `Cleaning.isRedundant` for label `(h, delta)` of `v`, hubs given as
    * vertices of `r`.
    */
  private def redundant(r: Ranking, h: Int, delta: Long, rootDist: Array[Long],
                        lv: (Array[Int], Array[Long])): Boolean =
    Cleaning.isRedundant(r.posOf(h), delta, rootDist, lv._1.map(r.posOf), lv._2, lv._1.length)

  test("Cleaning.isRedundant: higher-ranked witness on the path") {
    // L_v = {(1,4),(3,2)} in any order, L_1 = {(3,2),(1,0)}; label (1,4)
    // of v: witness hub 3 with 2+2 <= 4 and rank(3) > rank(1) → redundant
    val lv = (Array(1, 3), Array(4L, 2L))
    val rootDist = snapshot(rank, Array(3, 1), Array(2L, 0L))
    assert(redundant(rank, 1, 4L, rootDist, lv))
  }

  test("Cleaning.isRedundant: self-witness terminates as non-redundant") {
    val lv = (Array(3, 1), Array(9L, 4L)) // hub 3 too far: 9+2 > 4
    val rootDist = snapshot(rank, Array(3, 1), Array(2L, 0L))
    assert(!redundant(rank, 1, 4L, rootDist, lv))
  }

  test("Cleaning.isRedundant: witness must outrank the hub") {
    // common hub 0 meets the distance condition but ranks below hub 2
    val r3 = identityRanking(3)
    val lv = (Array(2, 0), Array(4L, 1L))
    val rootDist = snapshot(r3, Array(2, 0), Array(0L, 3L))
    assert(!redundant(r3, 2, 4L, rootDist, lv))
  }

  test("a hub the snapshot lacks neither covers nor witnesses, even at the ingest distance limit") {
    val far = LongMinHeap.MaxDistance - 1 // the largest distance CsrGraph admits
    // the snapshot either lacks hub 0 (but holds hub 1) or holds hub 0 at 0
    val lacks = new DijkstraScratch(2); lacks.snap(1, 0L)
    val holds = new DijkstraScratch(2); holds.snap(0, 0L)
    // distance query: L_1 = {(0, far)}
    val table = new LabelBuffers(2, threadSafe = false)
    table.add(1, 0, far)
    assert(!table.covered(1, lacks.rootDist, far))
    assert(table.covered(1, holds.rootDist, far)) // far + 0 meets delta exactly
    assert(!table.covered(1, holds.rootDist, far - 1))
    // DQ_Clean of label (1, far): L_h = {(0, far)}, and hub 0 outranks hub 1
    val (hubsH, distsH) = (Array(0), Array(far))
    assert(!Cleaning.isRedundant(1, far, lacks.rootDist, hubsH, distsH, 1))
    assert(Cleaning.isRedundant(1, far, holds.rootDist, hubsH, distsH, 1))
    assert(!Cleaning.isRedundant(1, far - 1, holds.rootDist, hubsH, distsH, 1))
  }

  test("markVertex marks exactly what DQ_Clean marks, vertex by vertex") {
    val rnd = new scala.util.Random(21)
    val n   = 12
    var marks, labels = 0L
    for (trial <- 0 until 30) {
      val r = randomRanking(n, trial)
      // witness lists with distinct hubs at random distances, in any order
      val witnesses = new LabelBuffers(n, threadSafe = false)
      for (v <- 0 until n; w <- rnd.shuffle((0 until n).toList).take(rnd.nextInt(n)))
        witnesses.add(v, w, 1L + rnd.nextInt(10))
      // candidates: a random set of hubs per vertex, some vertices without
      val cands = new LabelBuffers(n, threadSafe = false)
      for (v <- 0 until n; h <- (0 until n).filter(_ => rnd.nextInt(3) == 0)) cands.add(v, h, 1L + rnd.nextInt(20))
      val cand    = cands.toLabeling(r)
      val scratch = new DijkstraScratch(n)
      val marked  = new scala.collection.mutable.ArrayBuilder.ofInt
      for (v <- 0 until n) Cleaning.markVertex(v, cand, witnesses, scratch, marked)
      val got = marked.result().toSeq
      def list(v: Int) = { val b = witnesses.bufs(v); (0 until b.size).map(j => (b.hubs(j), b.dists(j))) }
      val brute = for {
        v <- 0 until n; k <- cand.offsets(v) until cand.offsets(v + 1)
        h = cand.hubPos(k); delta = cand.hubDist(k); dh = list(r.order(h)).toMap
        if list(v).exists { case (w, dv) => w < h && dh.get(w).exists(dv + _ <= delta) }
      } yield k
      assert(got == brute, s"trial $trial")
      marks += got.size; labels += cand.labelCount
    }
    assert(marks > 0 && marks < labels, s"$marks of $labels marked")
  }

  test("commitVertex appends what DQ_Clean keeps, in hub order, and leaves local as it was") {
    val rnd = new scala.util.Random(33)
    val n   = 12
    for (trial <- 0 until 30) {
      val r = randomRanking(n, trial)
      // a local table whose lists hold distinct hubs in random order, as
      // racing threads leave them, and a global table with earlier labels
      val local = new LabelBuffers(n, threadSafe = true)
      for (v <- 0 until n; h <- rnd.shuffle((0 until n).toList).take(rnd.nextInt(n)))
        local.add(v, h, 1L + rnd.nextInt(10))
      def list(t: LabelBuffers, v: Int) = { val b = t.bufs(v); (0 until b.size).map(j => (b.hubs(j), b.dists(j))) }
      val before = (0 until n).map(list(local, _))
      for (clean <- Seq(true, false)) {
        val global  = new LabelBuffers(n, threadSafe = false)
        for (v <- 0 until n) global.add(v, -1, 0L) // an earlier superstep's label stays first
        val scratch = new DijkstraScratch(n)
        for (v <- 0 until n) {
          val brute = list(local, v).filter { case (h, delta) =>
            val dh = list(local, r.order(h)).toMap
            clean && list(local, v).exists { case (w, dv) => w < h && dh.get(w).exists(dv + _ <= delta) }
          }
          val removed = Cleaning.commitVertex(v, local, global, r, scratch, clean)
          assert(removed == brute.size, s"trial $trial, vertex $v, clean $clean")
          val want = list(local, v).filterNot(brute.contains).sortBy(_._1)
          assert(list(global, v) == (-1, 0L) +: want, s"trial $trial, vertex $v, clean $clean")
        }
        assert((0 until n).map(list(local, _)) == before, s"trial $trial: local must not change")
      }
    }
  }
}
