package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.WeightedGraph
import repro.graphgen.GraphGen
import repro.metrics.Errors

class MonteCarloSeqSpec extends AnyFunSuite {

  private val alpha = 0.2

  test("walkCount formula matches the FORA/SpeedPPR setting") {
    // W = (2ε_r/3 + 2)·ln(2/p_f)/(ε_r²·δ)
    val w = MonteCarloSeq.walkCount(delta = 0.01, epsR = 0.5, pf = 0.001)
    val want = math.ceil((2 * 0.5 / 3 + 2) * math.log(2000.0) / (0.25 * 0.01))
    assert(w == want.toLong)
  }

  test("walkCount grows as delta shrinks") {
    assert(MonteCarloSeq.walkCount(1e-3, 0.5, 0.01) > MonteCarloSeq.walkCount(1e-2, 0.5, 0.01))
  }

  test("estimate is a probability distribution") {
    val g = GraphGen.randomGraph(20, 0.3, 1)
    val pi = MonteCarloSeq.compute(g, 0, alpha, walks = 5000, seed = 1).pi
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    assert(pi.forall(_ >= 0))
  }

  test("estimate converges to exact PPR with many walks") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(15, 0.3, 2), 1.5, seed = 2)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val pi = MonteCarloSeq.compute(g, 0, alpha, walks = 200000, seed = 3).pi
    assert(Errors.l1(pi, exact) < 0.05, s"l1=${Errors.l1(pi, exact)}")
  }

  test("weighted sampling: neighbor probability proportional to edge weight") {
    // star: center 0 with weights 9 and 1 — walks stopping at leaf 1 should
    // be ~9x those at leaf 2 (conditioned on leaving the center once).
    val g = WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, 9.0), (0, 2, 1.0)))
    val pi = MonteCarloSeq.compute(g, 0, alpha, walks = 100000, seed = 4).pi
    val ratio = pi(1) / pi(2)
    assert(ratio > 6 && ratio < 13, s"ratio=$ratio want ~9")
  }

  test("deterministic in the seed") {
    val g = GraphGen.randomGraph(20, 0.2, 5)
    val a = MonteCarloSeq.compute(g, 0, alpha, 1000, seed = 7).pi
    val b = MonteCarloSeq.compute(g, 0, alpha, 1000, seed = 7).pi
    val c = MonteCarloSeq.compute(g, 0, alpha, 1000, seed = 8).pi
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("mean walk length tracks 1/alpha - 1 moves per walk") {
    val g = GraphGen.uniformComplete(10)
    val walks = 20000L
    val res = MonteCarloSeq.compute(g, 0, alpha, walks, seed = 6)
    val meanSteps = res.walkSteps.toDouble / walks
    // Geometric: expected moves = (1-α)/α = 4
    assert(meanSteps > 3.5 && meanSteps < 4.5, s"meanSteps=$meanSteps")
  }

  test("walk kernel samples every neighbor of a uniform star") {
    val edges = (1 until 6).map(v => (0, v, 1.0))
    val g = WeightedGraph.fromUndirectedEdges(6, edges)
    val walker = new MonteCarloSeq.Walker(g, alpha, seed = 1)
    val seen = (1 to 2000).map(_ => walker.sample(0)).toSet
    assert(seen == (1 until 6).toSet)
  }

  test("walk kernel draws java.util.Random's nextDouble stream") {
    val g = GraphGen.uniformComplete(3)
    for (seed <- Seq(0L, 1L, 42L, -1L, Long.MinValue, Long.MaxValue)) {
      val walker = new MonteCarloSeq.Walker(g, alpha, seed)
      val want = new java.util.Random(seed)
      var i = 0
      while (i < 100000) {
        val (a, b) = (walker.nextDouble(), want.nextDouble())
        assert(java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b), s"seed $seed draw $i")
        i += 1
      }
    }
  }

  /** (graph, source, walkSteps, digest of π̂) for 10,000 walks with seed
    * 42 + source, as the benchmark seeds them, recorded from the kernel that
    * rebuilt a 2m-long prefix-sum index per query and drew from
    * `scala.util.Random`. The last source of each graph is its isolated node.
    */
  private val golden: Seq[(String, Int, Long, Long)] = Seq(
    ("star", 0, 39882L, 0xd751626253090859L),
    ("star", 1, 40114L, 0x740d673ceb99a53fL),
    ("star", 301, 0L, 0x4fb8503421075d5dL),
    ("complete", 0, 39882L, 0x52c997ebe3ad22d5L),
    ("complete", 58, 40190L, 0xc22d2d007ca501fdL),
    ("complete", 80, 0L, 0x542be9edbe9a769fL),
    ("affinity", 0, 39882L, 0xd4ac0d47b35eb853L),
    ("affinity", 147, 40544L, 0x54496e61a6b90df7L),
    ("affinity", 200, 0L, 0x59bfbe53f53426bfL),
    ("chunglu", 0, 39882L, 0xc36e5113a232b2ceL),
    ("chunglu", 735, 39828L, 0x3bae3f36416e9cb1L),
    ("chunglu", 2000, 0L, 0xd3dea13140ff989fL)
  )

  private def goldenQuery(graph: String, s: Int): PprResult =
    MonteCarloSeq.compute(Goldens.graphs(graph), s, alpha, walks = 10000, seed = 42 + s)

  test("golden: Monte-Carlo walk steps and π̂ bits unchanged on the golden graphs") {
    for ((graph, s, steps, digest) <- golden) {
      val res = goldenQuery(graph, s)
      assert((res.walkSteps, Goldens.bitsDigest(res.pi)) == ((steps, digest)), s"$graph source $s")
    }
  }

  /** The reference for `Walker.pick`: u's full row prefix sums, from 0.0 in
    * CSR order, and the first edge whose sum is ≥ x (the row's last edge if
    * none is), found by binary search.
    */
  private def refPick(g: WeightedGraph, u: Int, x: Double): Int = {
    val lo = g.indptr(u)
    val cum = (lo until g.indptr(u + 1)).scanLeft(0.0)(_ + g.wgt(_)).tail
    var a = 0
    var b = cum.length - 1
    while (a < b) {
      val mid = (a + b) >>> 1
      if (cum(mid) < x) a = mid + 1 else b = mid
    }
    lo + a
  }

  /** x = 0, every prefix sum of u's row and the double just below it, and
    * d(u)·(1 − 2⁻⁵³), the largest draw.
    */
  private def probes(g: WeightedGraph, u: Int): Seq[Double] = {
    val cum = (g.indptr(u) until g.indptr(u + 1)).scanLeft(0.0)(_ + g.wgt(_)).tail
    Seq(0.0, g.deg(u) * (1 - 1.0 / (1L << 53))) ++ cum ++ cum.map(math.nextDown)
  }

  /** For every row length L in 1..20 and every offset k mod 8, a hub whose
    * row of L edges starts at a directed-edge index ≡ k (mod 8). Leaves
    * (rows of one edge) placed before a hub shift its row to offset k.
    * Weights span 25 orders of magnitude, so some sums absorb an edge.
    */
  private def alignedHubs(): (WeightedGraph, Seq[(Int, Int, Int)]) = {
    val rows = for (len <- 1 to 20; k <- 0 until 8) yield (len, k)
    val leafCount = rows.map(_._1).sum
    val hubAt = scala.collection.mutable.ArrayBuffer.empty[Int] // row index -> id
    var id = 0
    var off = 0
    var padding = 0
    for ((len, k) <- rows) {
      val pad = Math.floorMod(k - off, 8)
      id += pad; padding += pad; off += pad // leaf rows before the hub
      hubAt += id
      id += 1; off += len
    }
    assert(padding <= leafCount)
    val n = id + (leafCount - padding)
    val hubs = hubAt.toSet
    val leaves = (0 until n).filterNot(hubs).iterator
    val rnd = new scala.util.Random(7)
    val edges = rows.indices.flatMap { i =>
      Seq.fill(rows(i)._1)((hubAt(i), leaves.next(), math.pow(10, -20 + 25 * rnd.nextDouble())))
    }
    val g = WeightedGraph.fromUndirectedEdges(n, edges)
    (g, rows.indices.map(i => (hubAt(i), rows(i)._1, rows(i)._2)))
  }

  test("pick finds the edge a search over the full row prefix sums finds") {
    val (g, hubs) = alignedHubs()
    for ((u, len, k) <- hubs) assert(g.nbrCount(u) == len && g.indptr(u) % 8 == k)
    assert(hubs.exists { case (u, _, _) => g.indptr(u + 1) % 8 == 0 }, "no row ends at a checkpoint")
    val star = Goldens.graphs("star")
    assert(star.nbrCount(0) > 8 * 8, "the star's hub spans many blocks")
    for ((graph, u) <- hubs.map(h => (g, h._1)) :+ ((star, 0))) {
      val walker = new MonteCarloSeq.Walker(graph, alpha, seed = 1)
      for (x <- probes(graph, u))
        assert(walker.pick(u, x) == refPick(graph, u, x), s"node $u, x = $x")
    }
    // The golden row of a query whose walks cross the star's hub.
    val (_, _, steps, digest) = golden.find(r => r._1 == "star" && r._2 == 1).get
    val res = goldenQuery("star", 1)
    assert((res.walkSteps, Goldens.bitsDigest(res.pi)) == ((steps, digest)))
  }
}
