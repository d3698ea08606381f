package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graph.WeightedGraph
import repro.graphgen.GraphGen
import repro.metrics.Errors

class LocalPushSeqSpec extends AnyFunSuite {

  private val alpha = 0.2

  test("terminal residues are all below d(u)*theta") {
    val g = GraphGen.randomGraph(50, 0.1, 1)
    val theta = 1e-4
    val queueOnly = LocalPushSeq.run(g, 0, alpha, theta)
    // Some(0.0) switches to scan passes once two nodes are queued; the
    // scans' node reads make its touch count differ from the queue-only run's.
    val switching = PowForPushSeq.run(g, 0, alpha, theta, scanSwitchFrac = Some(0.0))
    assert(switching._1.edgeTouches != queueOnly._1.edgeTouches, "scan passes count node reads")
    for (((res, r), name) <- Seq(queueOnly -> "queue-only", switching -> "switching")) {
      (0 until g.n).foreach(u =>
        assert(r(u) < g.deg(u) * theta + 1e-15 || g.deg(u) == 0, s"$name: node $u r=${r(u)}"))
      assert(math.abs(res.pi.sum + r.sum - 1.0) < 1e-12, s"$name: mass not conserved")
    }
  }

  test("reserve underestimates the true PPR everywhere") {
    val g = GraphGen.randomGraph(40, 0.15, 2)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val pi = LocalPushSeq.compute(g, 0, alpha, 1e-4).pi
    (0 until g.n).foreach(u => assert(pi(u) <= exact(u) + 1e-9))
  }

  test("Lemma 1 invariant: pi(t) = pî(t) + sum_u r(u)*pi_u(t)") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.25, 3), 1.2, seed = 3)
    val s = 0
    val (res, r) = LocalPushSeq.run(g, s, alpha, 1e-3)
    val pi = res.pi
    val exactS = TestUtil.exactPpr(g, s, alpha)
    // For a handful of targets t, check the invariant using exact π_u(t).
    val exactFrom = (0 until g.n).filter(r(_) > 0).map(u => u -> TestUtil.exactPpr(g, u, alpha)).toMap
    Seq(0, 1, g.n / 2, g.n - 1).foreach { t =>
      val rhs = pi(t) + exactFrom.map { case (u, pu) => r(u) * pu(t) }.sum
      assert(math.abs(exactS(t) - rhs) < 1e-9, s"t=$t exact=${exactS(t)} rhs=$rhs")
    }
  }

  for (seed <- 1 to 5)
    test(s"Fact 1: l1 error ≤ eps with theta = eps/||A||_1 (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, seed), 0.9, seed = seed)
      val s = g.sampleSourcesByDegree(1, seed)(0)
      val eps = 1e-2
      val pi = LocalPushSeq.compute(g, s, alpha, Thresholds.localPushL1Theta(g, eps)).pi
      val exact = TestUtil.exactPpr(g, s, alpha)
      assert(Errors.l1(pi, exact) <= eps + 1e-9)
    }

  for (seed <- 1 to 5)
    test(s"Fact 2: normalized additive error ≤ rmax with theta = rmax (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, seed), 0.9, seed = seed)
      val s = g.sampleSourcesByDegree(1, seed)(0)
      val rmax = 1e-3
      val pi = LocalPushSeq.compute(g, s, alpha, rmax).pi
      val exact = TestUtil.exactPpr(g, s, alpha)
      (0 until g.n).foreach { u =>
        if (g.deg(u) > 0)
          assert(math.abs(pi(u) - exact(u)) / g.deg(u) <= rmax + 1e-12, s"node $u")
      }
    }

  test("smaller theta gives more accurate results and more work") {
    val g = GraphGen.randomGraph(60, 0.1, 4)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val coarse = LocalPushSeq.compute(g, 0, alpha, 1e-2)
    val fine = LocalPushSeq.compute(g, 0, alpha, 1e-5)
    assert(Errors.l1(fine.pi, exact) < Errors.l1(coarse.pi, exact))
    assert(fine.edgeTouches > coarse.edgeTouches)
  }

  test("source with huge theta performs no pushes") {
    val g = GraphGen.randomGraph(20, 0.2, 5)
    val res = LocalPushSeq.compute(g, 0, alpha, theta = 1e6)
    assert(res.pushOps == 0)
    assert(res.pi.forall(_ == 0.0))
  }

  test("edgeTouches equals sum of n(u) over pushes on a star") {
    val n = 11
    val edges = (1 until n).map(v => (0, v, 1.0))
    val g = WeightedGraph.fromUndirectedEdges(n, edges)
    // θ large enough that only the source (center) pushes once.
    val res = LocalPushSeq.compute(g, 0, alpha, theta = 0.09)
    assert(res.pushOps == 1)
    assert(res.edgeTouches == n - 1)
  }

  test("deterministic: repeated runs give identical results") {
    val g = GraphGen.randomGraph(30, 0.2, 6)
    val a = LocalPushSeq.compute(g, 2, alpha, 1e-4)
    val b = LocalPushSeq.compute(g, 2, alpha, 1e-4)
    assert(a.pi.toSeq == b.pi.toSeq && a.pushOps == b.pushOps)
  }

  test("work scales like 1/theta (Lemma 11 trend)") {
    val g = GraphGen.randomGraph(80, 0.1, 7)
    val w1 = LocalPushSeq.compute(g, 0, alpha, 1e-3).edgeTouches
    val w2 = LocalPushSeq.compute(g, 0, alpha, 1e-5).edgeTouches
    assert(w2 > w1)
    assert(w2 < 300L * w1, "work should not blow up faster than 1/theta by orders")
  }

  /** (graph, thresholds, source, pushOps, edgeTouches, digest of π̂, digest
    * of the terminal residues r, which FORA's walk phase reads), recorded
    * from the kernel that queued nodes in a boxed `ArrayDeque`. The last
    * source of each graph is its isolated node. Thresholds: `l1` is
    * Thresholds.localPushL1Theta(g, 1e-4), `rmax` is θ = 1e-5.
    */
  private val golden: Seq[(String, String, Int, Long, Long, Long, Long)] = Seq(
    ("star", "l1", 0, 6623L, 13499L, 0x5a79e3169980e69aL, 0x8ded106fa8ae01c5L),
    ("star", "l1", 1, 6623L, 13202L, 0xb1ffb76920baf04fL, 0x3731a55daef05990L),
    ("star", "l1", 301, 0L, 0L, 0x6228503421075d5dL, 0x4fb8503421075d5dL),
    ("star", "rmax", 0, 7225L, 14699L, 0x66cb40adc5878729L, 0x3e319a455760cccbL),
    ("star", "rmax", 1, 7225L, 14402L, 0x9af9cd7fe3b84139L, 0x36577d8e1219ddf4L),
    ("star", "rmax", 301, 0L, 0L, 0x6228503421075d5dL, 0x4fb8503421075d5dL),
    ("complete", "l1", 0, 1749L, 138171L, 0x43a448ad7c588a06L, 0x91ea447828a266aaL),
    ("complete", "l1", 58, 1786L, 141094L, 0xf92a8e1942887958L, 0x040f46d939ec6326L),
    ("complete", "l1", 80, 0L, 0L, 0x0edbe9edbe9a769fL, 0x542be9edbe9a769fL),
    ("complete", "rmax", 0, 1129L, 89191L, 0x70e1b2d4eaf3f1dfL, 0xbbea3e2155a0d973L),
    ("complete", "rmax", 58, 1168L, 92272L, 0x4f171bc3088bfba6L, 0x312a3fdba029e5ceL),
    ("complete", "rmax", 80, 0L, 0L, 0x0edbe9edbe9a769fL, 0x542be9edbe9a769fL),
    ("affinity", "l1", 0, 4424L, 880376L, 0xec98f2a5e14b566fL, 0xa66b52efdf0d11dcL),
    ("affinity", "l1", 147, 4484L, 892316L, 0xeeb3e3fc5da86a87L, 0x06e2d6942087451eL),
    ("affinity", "l1", 200, 0L, 0L, 0x9eefbe53f53426bfL, 0x59bfbe53f53426bfL),
    ("affinity", "rmax", 0, 1030L, 204970L, 0x540dfcaa52522797L, 0x784ccbbd14d70ddaL),
    ("affinity", "rmax", 147, 1121L, 223079L, 0x43b11642252e022aL, 0xa5bfd60a80c67252L),
    ("affinity", "rmax", 200, 0L, 0L, 0x9eefbe53f53426bfL, 0x59bfbe53f53426bfL),
    ("chunglu", "l1", 0, 43528L, 360110L, 0x7a666e6382530d80L, 0xb220dfef24631afcL),
    ("chunglu", "l1", 735, 42436L, 350987L, 0xfb5ea2393a3ba59aL, 0xbb8530644dbc3f90L),
    ("chunglu", "l1", 2000, 0L, 0L, 0x3b2ea13140ff989fL, 0xd3dea13140ff989fL),
    ("chunglu", "rmax", 0, 2287L, 21709L, 0xa814a4f16390ca09L, 0xd769590f13ba59daL),
    ("chunglu", "rmax", 735, 713L, 7415L, 0xa10754f1db62b2f1L, 0x055c89afd441c36bL),
    ("chunglu", "rmax", 2000, 0L, 0L, 0x3b2ea13140ff989fL, 0xd3dea13140ff989fL)
  )

  for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax"))
    test(s"golden: $graph graph, $kind threshold: push counts, π̂ and r bits unchanged") {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.localPushL1Theta(g, 1e-4) else 1e-5
      for ((_, _, s, ops, touches, piDigest, rDigest) <- golden.filter(r => r._1 == graph && r._2 == kind)) {
        val (res, r) = LocalPushSeq.run(g, s, alpha, theta)
        assert((res.pushOps, res.edgeTouches, Goldens.bitsDigest(res.pi), Goldens.bitsDigest(r)) ==
          ((ops, touches, piDigest, rDigest)), s"source $s")
      }
    }
}
