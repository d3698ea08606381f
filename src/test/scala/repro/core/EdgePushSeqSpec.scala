package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graphgen.{Affinity, GraphGen}
import repro.metrics.Errors

class EdgePushSeqSpec extends AnyFunSuite {

  private val alpha = 0.2

  test("terminal edge residues are all below theta(u,v) (Algorithm 2 termination)") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(40, 0.15, 1), 0.9, seed = 1)
    val theta = Thresholds.l1(g, 1e-3)
    val (_, residues) = EdgePushSeq.computeWithResidues(g, 0, alpha, theta)
    residues.indices.foreach(e =>
      assert(residues(e) < theta(e) + 1e-12, s"edge $e residue=${residues(e)} theta=${theta(e)}"))
  }

  test("edge residues are never negative") {
    val g = GraphGen.randomGraph(30, 0.2, 2)
    val (_, residues) = EdgePushSeq.computeWithResidues(g, 1, alpha, Thresholds.l1(g, 1e-4))
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
    val (pi, residues) = EdgePushSeq.computeWithResidues(g, s, alpha, Thresholds.l1(g, 1e-2))
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
    val g = repro.graph.WeightedGraph.fromUndirectedEdges(4, Seq((1, 2, 1.0)))
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
    ("star", "l1", None, 0, 6945L, 6945L, 0xc8a723eec62521f0L, 6945L),
    ("star", "l1", None, 1, 6350L, 6350L, 0x9b4811bfaeb88a1bL, 6350L),
    ("star", "l1", None, 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "l1", Some(0.0), 0, 6945L, 18368L, 0x09daf36f90bf5557L, 6945L),
    ("star", "l1", Some(0.0), 1, 6947L, 18071L, 0x02bb4eb039832366L, 6947L),
    ("star", "l1", Some(0.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "l1", Some(1.0), 0, 6946L, 18369L, 0xf8d76248143540b3L, 6946L),
    ("star", "l1", Some(1.0), 1, 6946L, 17768L, 0x46bf33659d914ae9L, 6946L),
    ("star", "l1", Some(1.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", None, 0, 11419L, 11419L, 0xf83dfac2f6f33051L, 11419L),
    ("star", "rmax", None, 1, 11123L, 11123L, 0x0593a3d3acf34722L, 11123L),
    ("star", "rmax", None, 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", Some(0.0), 0, 11419L, 22548L, 0x744098432c9e508bL, 11419L),
    ("star", "rmax", Some(0.0), 1, 11421L, 22251L, 0xfd8703b059749e01L, 11421L),
    ("star", "rmax", Some(0.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("star", "rmax", Some(1.0), 0, 11719L, 23146L, 0x4ce9fb5d175ac74cL, 11719L),
    ("star", "rmax", Some(1.0), 1, 11420L, 21948L, 0x27a03d863d2e2128L, 11420L),
    ("star", "rmax", Some(1.0), 301, 0L, 0L, 0xe368c2fd6d70f90fL, 0L),
    ("complete", "l1", None, 0, 72842L, 72842L, 0x301e7c51db0f1728L, 73026L),
    ("complete", "l1", None, 58, 73955L, 73955L, 0x11f1a13455fdffceL, 73957L),
    ("complete", "l1", None, 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "l1", Some(0.0), 0, 72571L, 164534L, 0x856e9a4490b3fddfL, 72571L),
    ("complete", "l1", Some(0.0), 58, 75909L, 160041L, 0x2992bb44b6161357L, 75909L),
    ("complete", "l1", Some(0.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "l1", Some(1.0), 0, 72508L, 165644L, 0xfa3c70f40f967a65L, 72508L),
    ("complete", "l1", Some(1.0), 58, 75964L, 158607L, 0x2e7ef0c931b0a321L, 75964L),
    ("complete", "l1", Some(1.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", None, 0, 19188L, 19188L, 0xae097faf6a22266cL, 19178L),
    ("complete", "rmax", None, 58, 19306L, 19306L, 0x4eb8e1f80d039e21L, 19312L),
    ("complete", "rmax", None, 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", Some(0.0), 0, 19318L, 125024L, 0x9de785efd103ae03L, 19318L),
    ("complete", "rmax", Some(0.0), 58, 19310L, 128974L, 0x47ba383a52ccb9c5L, 19310L),
    ("complete", "rmax", Some(0.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("complete", "rmax", Some(1.0), 0, 19250L, 93355L, 0xbe2e35ef96bbbf23L, 19248L),
    ("complete", "rmax", Some(1.0), 58, 19431L, 92822L, 0x94346522e53fa3b5L, 19431L),
    ("complete", "rmax", Some(1.0), 80, 0L, 0L, 0x79287f3f0832e14dL, 0L),
    ("affinity", "l1", None, 0, 565959L, 565959L, 0x6f02ef0e6b5be03cL, 565959L),
    ("affinity", "l1", None, 147, 576803L, 576803L, 0x3832072366f8203cL, 576803L),
    ("affinity", "l1", None, 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "l1", Some(0.0), 0, 588558L, 1099122L, 0x06810c11f9a08b06L, 588558L),
    ("affinity", "l1", Some(0.0), 147, 594860L, 1090571L, 0x4f9b295b73dcf6adL, 594860L),
    ("affinity", "l1", Some(0.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "l1", Some(1.0), 0, 574485L, 1083993L, 0x0b174fa39d1174d4L, 574485L),
    ("affinity", "l1", Some(1.0), 147, 585169L, 1100488L, 0x649af78ef87214f4L, 585169L),
    ("affinity", "l1", Some(1.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", None, 0, 97215L, 97215L, 0xb68d4575d969def0L, 97215L),
    ("affinity", "rmax", None, 147, 107582L, 107582L, 0x524c3153ac3a8efbL, 107582L),
    ("affinity", "rmax", None, 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", Some(0.0), 0, 100307L, 389631L, 0x4f4a342358c8acc7L, 100307L),
    ("affinity", "rmax", Some(0.0), 147, 110943L, 461688L, 0x23592c389915b669L, 110943L),
    ("affinity", "rmax", Some(0.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("affinity", "rmax", Some(1.0), 0, 98104L, 399680L, 0x63d20dd8815293c5L, 98104L),
    ("affinity", "rmax", Some(1.0), 147, 108169L, 443049L, 0x551a1ed424944fffL, 108169L),
    ("affinity", "rmax", Some(1.0), 200, 0L, 0L, 0xaecca70729fe446dL, 0L),
    ("chunglu", "l1", None, 0, 331165L, 331165L, 0xc5764dee2410bf09L, 331165L),
    ("chunglu", "l1", None, 735, 318881L, 318881L, 0x2d44eaef7f286190L, 318881L),
    ("chunglu", "l1", None, 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "l1", Some(0.0), 0, 340120L, 462969L, 0xdf8b90c3c87e4671L, 340120L),
    ("chunglu", "l1", Some(0.0), 735, 339959L, 464293L, 0xf51f48d57f1c1d4fL, 339959L),
    ("chunglu", "l1", Some(0.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "l1", Some(1.0), 0, 336770L, 456216L, 0x78eaadd2a8c11a20L, 336770L),
    ("chunglu", "l1", Some(1.0), 735, 333148L, 454124L, 0xeffdd4219de049f4L, 333148L),
    ("chunglu", "l1", Some(1.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", None, 0, 12522L, 12522L, 0x7b7d12a34815dca2L, 12522L),
    ("chunglu", "rmax", None, 735, 4608L, 4608L, 0xe7a2873d90c05b84L, 4608L),
    ("chunglu", "rmax", None, 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", Some(0.0), 0, 12322L, 80305L, 0x35c35b40eff5e86cL, 12322L),
    ("chunglu", "rmax", Some(0.0), 735, 4572L, 51041L, 0xcc640cb6ad5589ecL, 4572L),
    ("chunglu", "rmax", Some(0.0), 2000, 0L, 0L, 0xbc2155e993c7a34dL, 0L),
    ("chunglu", "rmax", Some(1.0), 0, 12522L, 12522L, 0x7b7d12a34815dca2L, 12522L),
    ("chunglu", "rmax", Some(1.0), 735, 4608L, 4608L, 0xe7a2873d90c05b84L, 4608L),
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

  test("a drain queues neighbours in the order the per-push heap pops their edges") {
    // Heaps of small integer keys, so that equal keys are common, built by
    // the kernel's Floyd order in a segment [lo, lo + len) of a larger arena.
    // The per-push drain pops the root, raises its key above the level (to
    // one of a few values, again with ties) and sifts it down. A drain takes
    // the edges at or below the level in level order and queues a subset of
    // them (the neighbours made eligible) through the frontier heap.
    val rnd = new scala.util.Random(5)
    for (trial <- 0 until 2000) {
      val lo = rnd.nextInt(4)
      val len = 1 + rnd.nextInt(40)
      val keys = Array.fill(lo + len + 3)((1 + rnd.nextInt(6)).toDouble)
      val edges = Array.tabulate(keys.length)(identity)
      var p = lo + len / 2 - 1
      while (p >= lo) { EdgePushSeq.siftDown(keys, edges, lo, lo + len, p); p -= 1 }
      val level = (1 + rnd.nextInt(4)).toDouble
      val queued = (lo until lo + len).filter(p => keys(p) <= level && rnd.nextInt(3) > 0)
      val front = new Array[Int](len)
      val queuedKey = Array.tabulate(len + 1)(j => if (j == 0) 0.0 else keys(lo + j - 1))
      var f = 0
      for (p <- queued) { EdgePushSeq.frontUp(queuedKey, front, f, p - lo + 1); f += 1 }
      val order = Seq.newBuilder[Int]
      while (f > 0) {
        order += edges(lo + front(0) - 1)
        f -= 1
        if (f > 0) EdgePushSeq.frontDown(queuedKey, front, f, front(f))
      }
      val popKeys = keys.clone
      val popEdges = edges.clone
      val popped = Seq.newBuilder[Int]
      while (popKeys(lo) <= level) {
        popped += popEdges(lo)
        popKeys(lo) = level + 1 + rnd.nextInt(3)
        EdgePushSeq.siftDown(popKeys, popEdges, lo, lo + len, lo)
      }
      val queuedEdges = queued.map(edges(_)).toSet
      assert(order.result() == popped.result().filter(queuedEdges),
        s"trial $trial: keys ${keys.mkString(",")}, level $level")
    }
  }

  test("each drain pushes exactly the edges e of x with (Q_e + θ_e)/A_e ≤ T") {
    for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax")) {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.l1(g, 1e-4) else Thresholds.rmax(g, 1e-5)
      val s = g.sampleSourcesByDegree(1, 14)(0)
      // The drain under way: its node, the edges the filter expects it to
      // push, and its edges' expense when it began.
      var x = -1
      var expected = Set.empty[Int]
      var before = Array.empty[Double]
      var drains = 0
      def checkLast(expense: Array[Double]): Unit = if (x >= 0) {
        val pushed = (g.indptr(x) until g.indptr(x + 1)).filter(e => expense(e) != before(e - g.indptr(x))).toSet
        assert(pushed == expected, s"$graph $kind: drain $drains of node $x")
      }
      val (res, _, expense) = EdgePushSeq.runProbed(g, s, alpha, theta, None, (u, q, expense) => {
        checkLast(expense)
        val level = (1 - alpha) * q(u) / g.deg(u)
        val seg = g.indptr(u) until g.indptr(u + 1)
        x = u
        expected = seg.filter(e => (expense(e) + theta(e)) / g.wgt(e) <= level).toSet
        before = seg.map(expense(_)).toArray
        drains += 1
        assert(expected.nonEmpty, s"$graph $kind: node $u drained with no edge at or below its level")
      })
      checkLast(expense)
      assert(drains > 0 && drains < res.pushOps, s"$graph $kind: $drains drains, ${res.pushOps} pushes")
    }
  }

  test("certificate: R_e < θ_e on every edge and mass conserved, with nodes reached but never drained") {
    val g = Goldens.graphs("chunglu")
    val theta = Thresholds.rmax(g, 1e-5)
    val isolated = (0 until g.n).find(g.deg(_) == 0).get
    for (s <- g.sampleSourcesByDegree(3, 11).toSeq :+ isolated) {
      val (pi, residues) = EdgePushSeq.computeWithResidues(g, s, alpha, theta)
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

  test("certificate and golden row hold when the heap arena relocates mid-query") {
    // Source 1 is the star's v1: one edge to the hub, one pendant edge. Its
    // two-slot segment is built first; the hub's segment then exceeds the
    // arena's initial capacity, and the arena moves with v1's heap in it.
    val g = Goldens.graphs("star")
    val hub = 0
    val v1Edges = g.indptr(1) until g.indptr(2)
    assert(v1Edges.size == 2 && v1Edges.exists(g.nbr(_) == hub))
    assert(g.nbrCount(hub) > EdgePushSeq.InitialArena)
    val theta = Thresholds.l1(g, 1e-4)
    val (res, q, expense) = EdgePushSeq.run(g, 1, alpha, theta)
    assert(v1Edges.exists(expense(_) > 0) && (g.indptr(hub) until g.indptr(hub + 1)).exists(expense(_) > 0))
    val (pi, residues) = EdgePushSeq.computeWithResidues(g, 1, alpha, theta)
    residues.indices.foreach(e =>
      assert(residues(e) < theta(e) + 1e-15, s"edge $e: R_e=${residues(e)} θ_e=${theta(e)}"))
    val kept = (0 until g.n).filter(g.deg(_) == 0).map(u => (1 - alpha) * q(u)).sum
    TestUtil.assertClose(pi.sum + residues.sum + kept, 1.0, 1e-9, "mass")
    val row = golden.find(r => r._1 == "star" && r._2 == "l1" && r._3.isEmpty && r._4 == 1).get
    assert((res.pushOps, res.edgeTouches, Goldens.bitsDigest(res.pi)) == ((row._5, row._6, row._7)))
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
