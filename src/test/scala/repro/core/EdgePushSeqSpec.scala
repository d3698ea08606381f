package repro.core

import org.scalatest.concurrent.TimeLimits.failAfter
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import repro.TestUtil
import repro.graph.WeightedGraph
import repro.graphgen.{Affinity, GraphGen}
import repro.metrics.Errors

class EdgePushSeqSpec extends AnyFunSuite {

  private val alpha = 0.2

  test("terminal edge residues are all below theta(u,v) (Algorithm 2 termination)") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(40, 0.15, 1), 0.9, seed = 1)
    val theta = Thresholds.l1(g, 1e-3)
    val (_, residues) = TestUtil.edgePushWithResidues(g, 0, alpha, theta)
    residues.indices.foreach(e =>
      assert(residues(e) < theta(e) + 1e-12, s"edge $e residue=${residues(e)} theta=${theta(e)}"))
  }

  test("edge residues are never negative") {
    val g = GraphGen.randomGraph(30, 0.2, 2)
    val (_, residues) = TestUtil.edgePushWithResidues(g, 1, alpha, Thresholds.l1(g, 1e-4))
    residues.foreach(r => assert(r >= -1e-12))
  }

  test("estimate underestimates the true PPR everywhere (Invariant 6)") {
    val g = GraphGen.randomGraph(35, 0.2, 3)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val pi = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, 1e-3)).pi
    (0 until g.n).foreach(u => assert(pi(u) <= exact(u) + 1e-9))
  }

  for (seed <- 1 to 6)
    test(s"Theorem 2: l1 error ≤ eps with optimal thresholds (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, seed), 0.8, seed = seed)
      val s = g.sampleSourcesByDegree(1, seed)(0)
      val eps = 1e-2
      val pi = EdgePushSeq.compute(g, s, alpha, Thresholds.l1(g, eps)).pi
      val exact = TestUtil.exactPpr(g, s, alpha)
      assert(Errors.l1(pi, exact) <= eps + 1e-9)
    }

  for (seed <- 1 to 6)
    test(s"Theorem 3: normalized additive error ≤ rmax (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, seed), 0.8, seed = seed)
      val s = g.sampleSourcesByDegree(1, seed)(0)
      val rmax = 1e-3
      val pi = EdgePushSeq.compute(g, s, alpha, Thresholds.rmax(g, rmax)).pi
      val exact = TestUtil.exactPpr(g, s, alpha)
      (0 until g.n).foreach { u =>
        if (g.deg(u) > 0)
          assert(math.abs(pi(u) - exact(u)) / g.deg(u) <= rmax + 1e-12,
            s"node $u err=${math.abs(pi(u) - exact(u)) / g.deg(u)}")
      }
    }

  test("Lemma 2 invariant: pi(t) = alpha*q(t) + sum_e R_e * pi_v(t)") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(20, 0.3, 4), 1.0, seed = 4)
    val s = 0
    val (pi, residues) = TestUtil.edgePushWithResidues(g, s, alpha, Thresholds.l1(g, 1e-2))
    val exactS = TestUtil.exactPpr(g, s, alpha)
    val exactFrom = (0 until g.n).map(v => v -> TestUtil.exactPpr(g, v, alpha)).toMap
    Seq(0, 1, g.n / 2, g.n - 1).foreach { t =>
      var rhs = pi(t)
      var u = 0
      while (u < g.n) {
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          rhs += residues(e) * exactFrom(g.nbr(e))(t)
          e += 1
        }
        u += 1
      }
      assert(math.abs(exactS(t) - rhs) < 1e-9, s"t=$t exact=${exactS(t)} rhs=$rhs")
    }
  }

  test("scan mode produces the same error guarantee as heap mode") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(40, 0.2, 5), 0.8, seed = 5)
    val eps = 1e-3
    val theta = Thresholds.l1(g, eps)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val heap = EdgePushSeq.compute(g, 0, alpha, theta, scanSwitchFrac = None)
    val scan = EdgePushSeq.compute(g, 0, alpha, theta, scanSwitchFrac = Some(0.0))
    assert(Errors.l1(heap.pi, exact) <= eps + 1e-9)
    assert(Errors.l1(scan.pi, exact) <= eps + 1e-9)
    // both terminate with all residues < θ; estimates agree up to 2ε
    assert(Errors.l1(heap.pi, scan.pi) <= 2 * eps + 1e-9)
  }

  test("Figure 1 bad case: EdgePush does far fewer edge touches than LocalPush") {
    // ℓ1 regime: with θ(u,v) ∝ √A_uv, the light edges (weight ~1/n²) fall
    // below threshold and are never pushed, while LocalPush's node-atomic
    // push touches all n-1 edges of the center every time.
    val n = 2000
    val g = GraphGen.unbalancedStar(n)
    val eps = 0.01
    val lp = LocalPushSeq.compute(g, 0, alpha, Thresholds.localPushL1Theta(g, eps))
    val ep = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, eps))
    assert(ep.totalWork * 10 < lp.totalWork,
      s"EdgePush=${ep.totalWork} LocalPush=${lp.totalWork}")
  }

  test("unbalanced complete graph: measured advantage tracks O(n) prediction") {
    val n = 150
    val g = GraphGen.unbalancedComplete(n)
    val eps = 1e-3
    val lp = LocalPushSeq.compute(g, 0, alpha, Thresholds.localPushL1Theta(g, eps))
    val ep = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, eps))
    val ratio = ep.totalWork.toDouble / lp.totalWork
    assert(ratio < 0.5, s"ratio=$ratio should be well below 1 on the unbalanced complete graph")
  }

  test("uniform-weight graph: EdgePush work is comparable to LocalPush (no advantage)") {
    val g = GraphGen.uniformComplete(60)
    val rmax = 1e-5
    val lp = LocalPushSeq.compute(g, 0, alpha, rmax)
    val ep = EdgePushSeq.compute(g, 0, alpha, Thresholds.rmax(g, rmax))
    // cos²φ = 1: EdgePush may still be up to (1-α) cheaper but not more
    // than ~an order in either direction.
    val ratio = ep.totalWork.toDouble / lp.totalWork
    assert(ratio > 0.1 && ratio < 3.0, s"ratio=$ratio")
  }

  test("affinity graph (unbalanced): EdgePush beats LocalPush clearly") {
    val g = Affinity.graph(200, Affinity.paperConfigs(0), seed = 17)
    val rmax = 1e-5
    val lp = LocalPushSeq.compute(g, g.sampleSourcesByDegree(1, 3)(0), alpha, rmax)
    val ep = EdgePushSeq.compute(g, g.sampleSourcesByDegree(1, 3)(0), alpha,
      Thresholds.rmax(g, rmax))
    assert(ep.totalWork * 2 < lp.totalWork,
      s"EdgePush=${ep.totalWork} LocalPush=${lp.totalWork}")
  }

  test("deterministic: repeated runs identical") {
    val g = GraphGen.randomGraph(30, 0.2, 6)
    val theta = Thresholds.l1(g, 1e-4)
    val a = EdgePushSeq.compute(g, 2, alpha, theta)
    val b = EdgePushSeq.compute(g, 2, alpha, theta)
    assert(a.pi.toSeq == b.pi.toSeq && a.pushOps == b.pushOps)
  }

  test("pushOps grow as eps shrinks") {
    val g = GraphGen.randomGraph(60, 0.1, 7)
    val a = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, 1e-2))
    val b = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, 1e-4))
    assert(b.pushOps > a.pushOps)
  }

  test("isolated-source query returns e_s-scaled estimate without crashing") {
    val g = WeightedGraph.fromUndirectedEdges(4, Seq((1, 2, 1.0)))
    val res = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, 1e-3))
    assert(res.pushOps == 0)
    assert(res.pi(0) == alpha * 1.0) // α·q with q = e_s
  }

  test("Lemma 3 bound: pushes ≤ sum over edges of (1-a)*pi(u)*A_uv/(a*d(u)*theta_uv)") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.25, 8), 0.9, seed = 8)
    val s = 0
    val theta = Thresholds.l1(g, 1e-2)
    val res = EdgePushSeq.compute(g, s, alpha, theta)
    val exact = TestUtil.exactPpr(g, s, alpha)
    var bound = 0.0
    var u = 0
    while (u < g.n) {
      if (g.deg(u) > 0) {
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          bound += (1 - alpha) * exact(u) * g.wgt(e) / (alpha * g.deg(u) * theta(e)) + 1
          e += 1
        }
      }
      u += 1
    }
    assert(res.pushOps <= bound, s"pushes=${res.pushOps} bound=$bound")
  }

  /** (graph, thresholds, scanSwitchFrac, source, pushOps, edgeTouches,
    * digest of π̂, pushOps before re-recording). The rows were recorded from
    * the kernel that drains a node in one pass over {e : key_e ≤ T}; they
    * replaced rows of a kernel that pushed one edge per find-min, whose
    * pushOps the last column keeps. Both push the same set per drain and
    * queue the neighbours it makes eligible in the same order; they leave
    * the drained heap in different layouts, so a later drain of the same
    * node can order equal keys differently, and with them the global
    * schedule. The last source of each graph is its isolated node.
    * Thresholds: `l1` is Thresholds.l1(g, 1e-4), `rmax` is
    * Thresholds.rmax(g, 1e-5).
    */
  private val golden: Seq[(String, String, Option[Double], Int, Long, Long, Long, Long)] = Seq(
    ("star", "l1", None, 0, 6945L, 6945L, 0x7a830ec232ee3fbeL, 6945L),
    ("star", "l1", None, 1, 6350L, 6350L, 0x1d8f4b6129db7466L, 6350L),
    ("star", "l1", None, 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "l1", Some(0.0), 0, 6945L, 18368L, 0x09daf36f90bf5557L, 6945L),
    ("star", "l1", Some(0.0), 1, 6947L, 18071L, 0x02bb4eb039832366L, 6947L),
    ("star", "l1", Some(0.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "l1", Some(1.0), 0, 6946L, 18369L, 0x3194d23ed35544d5L, 6946L),
    ("star", "l1", Some(1.0), 1, 6946L, 17768L, 0xbd966b2286531524L, 6946L),
    ("star", "l1", Some(1.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", None, 0, 11419L, 11419L, 0x25e862543bf968b8L, 11419L),
    ("star", "rmax", None, 1, 11123L, 11123L, 0x874f2ab7dfe34751L, 11123L),
    ("star", "rmax", None, 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", Some(0.0), 0, 11419L, 22548L, 0x744098432c9e508bL, 11419L),
    ("star", "rmax", Some(0.0), 1, 11421L, 22251L, 0xfd8703b059749e01L, 11421L),
    ("star", "rmax", Some(0.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", Some(1.0), 0, 11719L, 23146L, 0x81df85526fa6f092L, 11719L),
    ("star", "rmax", Some(1.0), 1, 11420L, 21948L, 0x50e890450a2a42ccL, 11420L),
    ("star", "rmax", Some(1.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("complete", "l1", None, 0, 72862L, 72862L, 0xa7206cf74f15556eL, 73026L),
    ("complete", "l1", None, 58, 73955L, 73955L, 0x14793222797759b2L, 73957L),
    ("complete", "l1", None, 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "l1", Some(0.0), 0, 72571L, 164534L, 0x856e9a4490b3fddfL, 72571L),
    ("complete", "l1", Some(0.0), 58, 75909L, 160041L, 0x2992bb44b6161357L, 75909L),
    ("complete", "l1", Some(0.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "l1", Some(1.0), 0, 72508L, 165644L, 0x992060a61b03fddcL, 72508L),
    ("complete", "l1", Some(1.0), 58, 76041L, 158607L, 0x1cc59c2893dc08caL, 75964L),
    ("complete", "l1", Some(1.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", None, 0, 19186L, 19186L, 0xebd281d26ad38e58L, 19178L),
    ("complete", "rmax", None, 58, 19213L, 19213L, 0x31d32874b3e4b9d6L, 19312L),
    ("complete", "rmax", None, 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", Some(0.0), 0, 19318L, 125024L, 0x9de785efd103ae03L, 19318L),
    ("complete", "rmax", Some(0.0), 58, 19310L, 128974L, 0x47ba383a52ccb9c5L, 19310L),
    ("complete", "rmax", Some(0.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", Some(1.0), 0, 19248L, 93276L, 0xbd6bf602b1e27817L, 19248L),
    ("complete", "rmax", Some(1.0), 58, 19437L, 92832L, 0xdba9a286e486bd83L, 19431L),
    ("complete", "rmax", Some(1.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("affinity", "l1", None, 0, 565959L, 565959L, 0x96d542a7af34347eL, 565959L),
    ("affinity", "l1", None, 147, 576803L, 576803L, 0x447bd236e9cc55a0L, 576803L),
    ("affinity", "l1", None, 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "l1", Some(0.0), 0, 588558L, 1099122L, 0x0ff646b19f03eec1L, 588558L),
    ("affinity", "l1", Some(0.0), 147, 594860L, 1090571L, 0xdf16d086fc58172aL, 594860L),
    ("affinity", "l1", Some(0.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "l1", Some(1.0), 0, 574485L, 1083993L, 0x677db8b56e8b133bL, 574485L),
    ("affinity", "l1", Some(1.0), 147, 585169L, 1100488L, 0xc9bc34aff67ecfa7L, 585169L),
    ("affinity", "l1", Some(1.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", None, 0, 97215L, 97215L, 0x6d6f9922263ad896L, 97215L),
    ("affinity", "rmax", None, 147, 107582L, 107582L, 0xb427decda848e24fL, 107582L),
    ("affinity", "rmax", None, 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", Some(0.0), 0, 100307L, 389631L, 0x07c9c832d3478065L, 100307L),
    ("affinity", "rmax", Some(0.0), 147, 110943L, 461688L, 0xe9e2c0d0c2f5096eL, 110943L),
    ("affinity", "rmax", Some(0.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", Some(1.0), 0, 98104L, 399680L, 0x0828768c3df76950L, 98104L),
    ("affinity", "rmax", Some(1.0), 147, 108169L, 443049L, 0xe0da3cc788aeab2bL, 108169L),
    ("affinity", "rmax", Some(1.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("chunglu", "l1", None, 0, 331165L, 331165L, 0x393deac0cc967e89L, 331165L),
    ("chunglu", "l1", None, 735, 318881L, 318881L, 0x8a9f49ab466b0ad6L, 318881L),
    ("chunglu", "l1", None, 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "l1", Some(0.0), 0, 340120L, 462969L, 0x98c1d0ac6a8da009L, 340120L),
    ("chunglu", "l1", Some(0.0), 735, 339959L, 464293L, 0xfaf5769ff041c67fL, 339959L),
    ("chunglu", "l1", Some(0.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "l1", Some(1.0), 0, 336770L, 456216L, 0x90a7619c6dbd9904L, 336770L),
    ("chunglu", "l1", Some(1.0), 735, 333148L, 454124L, 0xbe9bfac24892ada3L, 333148L),
    ("chunglu", "l1", Some(1.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", None, 0, 12522L, 12522L, 0x44e2c96da220e13bL, 12522L),
    ("chunglu", "rmax", None, 735, 4608L, 4608L, 0x6714455868253a2bL, 4608L),
    ("chunglu", "rmax", None, 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", Some(0.0), 0, 12322L, 80305L, 0x5cff137dc4247158L, 12322L),
    ("chunglu", "rmax", Some(0.0), 735, 4572L, 51041L, 0xcc640cb6ad5589ecL, 4572L),
    ("chunglu", "rmax", Some(0.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", Some(1.0), 0, 12522L, 12522L, 0x44e2c96da220e13bL, 12522L),
    ("chunglu", "rmax", Some(1.0), 735, 4608L, 4608L, 0x6714455868253a2bL, 4608L),
    ("chunglu", "rmax", Some(1.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L)
  )

  for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax"))
    test(s"golden: $graph graph, $kind thresholds: push counts and π̂ bits unchanged") {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.l1(g, 1e-4) else Thresholds.rmax(g, 1e-5)
      for ((_, _, mode, s, ops, touches, digest, _) <- golden.filter(r => r._1 == graph && r._2 == kind)) {
        val res = EdgePushSeq.compute(g, s, alpha, theta, mode)
        assert((res.pushOps, res.edgeTouches, Goldens.bitsDigest(res.pi)) == ((ops, touches, digest)),
          s"source $s, scanSwitchFrac $mode")
      }
    }

  test("re-recorded golden rows stay within 1% of the per-push drain's pushOps") {
    for ((graph, kind, mode, s, ops, _, _, before) <- golden)
      assert(math.abs(ops - before) <= 0.01 * before, s"$graph $kind $mode source $s: $before -> $ops")
  }

  /** rank(i) is the place of the 1-based heap index i + 1 in the preorder of
    * a complete binary tree of `len` nodes (a node before its subtrees, left
    * before right), found by walking the tree.
    */
  private def preorderRanks(len: Int): Array[Int] = {
    val rank = new Array[Int](len)
    var next = 0
    def visit(k: Int): Unit = if (k <= len) {
      rank(k - 1) = next
      next += 1
      visit(2 * k)
      visit(2 * k + 1)
    }
    visit(1)
    rank
  }

  /** The key of x's edge at row position i last pushed at level t, by
    * brute force: t + c_e, or the next double above t where that sum
    * rounds to t (so only edges below the level can push).
    */
  private def edgeKey(g: WeightedGraph, theta: Array[Double], x: Int, i: Int, t: Double): Double = {
    val k = t + theta(g.indptr(x) + i) / g.wgt(g.indptr(x) + i)
    if (k > t) k else Math.nextUp(t)
  }

  test("sortRow orders row positions by key, equal keys in heap preorder") {
    val rnd = new scala.util.Random(5)
    for (trial <- 0 until 1000) {
      val len = 1 + rnd.nextInt(150)
      // few distinct keys on even trials, so that ties are common
      val key = Array.fill(len)((1 + rnd.nextInt(if (trial % 2 == 0) 4 else 1000)).toDouble)
      val pos = rnd.shuffle((0 until len).toVector).toArray
      EdgePushSeq.sortRow(key, pos, new Array[Int](len), 0, len)
      val rank = preorderRanks(len)
      val expected = (0 until len).sortWith((i, j) => key(i) < key(j) || (key(i) == key(j) && rank(i) < rank(j)))
      assert(pos.toSeq == expected, s"trial $trial: keys ${key.mkString(",")}")
    }
  }

  test("each drain pushes exactly the edges e of x with t_e + c_e ≤ T") {
    for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax")) {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.l1(g, 1e-4) else Thresholds.rmax(g, 1e-5)
      val s = g.sampleSourcesByDegree(1, 14)(0)
      var drains = 0
      var pushes = 0L
      val (res, _, _) = EdgePushSeq.runProbed(g, s, alpha, theta, None, (x, level, before, after, _, _) => {
        val expected = before.indices.filter(i => edgeKey(g, theta, x, i, before(i)) <= level)
        val pushed = before.indices.filter(i => after(i) != before(i))
        assert(pushed == expected, s"$graph $kind: drain $drains of node $x")
        assert(expected.nonEmpty, s"$graph $kind: node $x drained with no edge at or below its level")
        assert(pushed.forall(after(_) == level), s"$graph $kind: drain $drains of node $x")
        drains += 1
        pushes += pushed.size
      })
      assert(pushes == res.pushOps, s"$graph $kind")
      assert(drains > 0 && drains < res.pushOps, s"$graph $kind: $drains drains, ${res.pushOps} pushes")
    }
  }

  test("a drain queues the neighbours it makes eligible by their edges' keys, equal keys in heap preorder") {
    for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax")) {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.l1(g, 1e-4) else Thresholds.rmax(g, 1e-5)
      val s = g.sampleSourcesByDegree(1, 14)(0)
      var queuedMany = 0 // drains that queued neighbours reached from runs of different levels
      EdgePushSeq.runProbed(g, s, alpha, theta, None, (x, level, before, _, queued, j) => {
        val got = queued.take(j).toSeq
        def key(i: Int) = edgeKey(g, theta, x, i, before(i))
        val rank = preorderRanks(before.length)
        assert(got.forall(key(_) <= level), s"$graph $kind node $x: a queued neighbour's edge did not push")
        assert(got.distinct.size == got.size, s"$graph $kind node $x")
        assert(got == got.sortWith((a, b) => key(a) < key(b) || (key(a) == key(b) && rank(a) < rank(b))),
          s"$graph $kind node $x at level $level")
        if (got.map(before).distinct.size > 1) queuedMany += 1
      })
      if (graph != "star") assert(queuedMany > 0, s"$graph $kind")
    }
  }

  test("certificate: R_e < θ_e on every edge and mass conserved, with nodes reached but never drained") {
    val g = Goldens.graphs("chunglu")
    val theta = Thresholds.rmax(g, 1e-5)
    val isolated = (0 until g.n).find(g.deg(_) == 0).get
    for (s <- g.sampleSourcesByDegree(3, 11).toSeq :+ isolated) {
      val (pi, residues) = TestUtil.edgePushWithResidues(g, s, alpha, theta)
      // slack for the rounding of Q_e ≤ 1 when R_e is recomputed outside the kernel
      residues.indices.foreach(e =>
        assert(residues(e) < theta(e) + 1e-15, s"source $s edge $e: R_e=${residues(e)} θ_e=${theta(e)}"))
      // a node without edges keeps its share (1−α)·q(u), with q(u) = π̂(u)/α
      val kept = (0 until g.n).filter(g.deg(_) == 0).map(u => (1 - alpha) * pi(u) / alpha).sum
      TestUtil.assertClose(pi.sum + residues.sum + kept, 1.0, 1e-9, s"source $s mass")
    }
    // Income reached nodes whose out-edges never pushed: their heaps were
    // never needed, and the certificate above covers their edges too.
    val (_, q, expense) = EdgePushSeq.run(g, g.sampleSourcesByDegree(1, 11)(0), alpha, theta)
    val reachedUndrained = (0 until g.n).count(u =>
      q(u) > 0 && g.nbrCount(u) > 0 && (g.indptr(u) until g.indptr(u + 1)).forall(expense(_) == 0))
    assert(reachedUndrained > 0)
  }

  test("certificate and golden row hold when the arenas relocate mid-query") {
    // Source 1 is the star's v1: one edge to the hub, one pendant edge. Its
    // two edges are sorted into the edge arena first; the hub's edges then
    // exceed the arena's initial capacity, and the arena moves with v1's
    // edges in it. The run arena fills and moves as more nodes drain.
    val g = Goldens.graphs("star")
    val hub = 0
    val v1Edges = g.indptr(1) until g.indptr(2)
    assert(v1Edges.size == 2 && v1Edges.exists(g.nbr(_) == hub))
    assert(g.nbrCount(hub) > EdgePushSeq.InitialArena)
    val theta = Thresholds.l1(g, 1e-4)
    val (res, q, expense) = EdgePushSeq.run(g, 1, alpha, theta)
    assert(v1Edges.exists(expense(_) > 0) && (g.indptr(hub) until g.indptr(hub + 1)).exists(expense(_) > 0))
    val drained = (0 until g.n).count(u => (g.indptr(u) until g.indptr(u + 1)).exists(expense(_) > 0))
    // each drained node takes at least Header + 1 slots of the run arena
    assert(drained > EdgePushSeq.InitialArena / (EdgePushSeq.Header + 1), s"$drained nodes drained")
    val (pi, residues) = TestUtil.edgePushWithResidues(g, 1, alpha, theta)
    residues.indices.foreach(e =>
      assert(residues(e) < theta(e) + 1e-15, s"edge $e: R_e=${residues(e)} θ_e=${theta(e)}"))
    val kept = (0 until g.n).filter(g.deg(_) == 0).map(u => (1 - alpha) * q(u)).sum
    TestUtil.assertClose(pi.sum + residues.sum + kept, 1.0, 1e-9, "mass")
    val row = golden.find(r => r._1 == "star" && r._2 == "l1" && r._3.isEmpty && r._4 == 1).get
    assert((res.pushOps, res.edgeTouches, Goldens.bitsDigest(res.pi)) == ((row._5, row._6, row._7)))
  }

  test("a threshold θ_e ≤ 0 or NaN is rejected, naming the edge, when its row is first read") {
    val g = WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)))
    failAfter(Span(20, Seconds)) {
      for (bad <- Seq(0.0, -1e-3, Double.NaN); mode <- Seq(None, Some(0.0))) {
        val err = intercept[IllegalArgumentException](
          EdgePushSeq.compute(g, 0, alpha, Array.fill(g.directedEdgeCount)(bad), mode))
        assert(err.getMessage.startsWith(s"theta(0) = $bad on edge (0,"), s"θ ≡ $bad, mode $mode")
      }
      // One bad edge among valid ones, in a row the query reaches.
      val theta = Array.fill(g.directedEdgeCount)(1e-3)
      val e = g.indptr(2)
      theta(e) = 0.0
      val err = intercept[IllegalArgumentException](EdgePushSeq.compute(g, 0, alpha, theta))
      assert(err.getMessage.startsWith(s"theta($e) = 0.0 on edge (2,"))
    }
  }

  test("queries are isolated: A, B, A across modes gives identical A results") {
    val g = Goldens.graphs("chunglu")
    val theta = Thresholds.rmax(g, 1e-5)
    val Array(a, b) = g.sampleSourcesByDegree(2, 12)
    for (mode <- Seq(None, Some(0.0), Some(1.0))) {
      val first = EdgePushSeq.run(g, a, alpha, theta, mode)
      EdgePushSeq.run(g, b, alpha, theta, mode)
      val again = EdgePushSeq.run(g, a, alpha, theta, mode)
      assert(first._1.pi.sameElements(again._1.pi), s"mode $mode: π̂")
      assert((first._1.pushOps, first._1.edgeTouches) == ((again._1.pushOps, again._1.edgeTouches)))
      assert(first._2.sameElements(again._2) && first._3.sameElements(again._3), s"mode $mode: q, Q")
    }
  }

  test("run keeps the (PprResult, q, expense) shape that callers destructure") {
    val g = Goldens.graphs("chunglu")
    val s = g.sampleSourcesByDegree(1, 13)(0)
    val (res, q, expense): (PprResult, Array[Double], Array[Double]) =
      EdgePushSeq.run(g, s, alpha, Thresholds.rmax(g, 1e-5), Some(1.0))
    assert(expense.length == g.directedEdgeCount)
    assert(q.length == g.n)
    assert(res.pi.length == g.n)
  }
}
