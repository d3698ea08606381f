package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graphgen.GraphGen
import repro.metrics.Errors

/** FORA and SpeedPPR share their parameterization; test them together. */
class ForaSpeedSpec extends AnyFunSuite {

  private val alpha = 0.2

  test("FORA: estimate is close to exact PPR at small delta") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.25, 1), 1.2, seed = 1)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val pi = ForaSeq.compute(g, 0, alpha, delta = 1e-4, seed = 2).pi
    assert(Errors.l1(pi, exact) < 0.05, s"l1=${Errors.l1(pi, exact)}")
  }

  test("FORA: error decreases as delta shrinks") {
    val g = GraphGen.randomGraph(30, 0.2, 2)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val coarse = Errors.l1(ForaSeq.compute(g, 0, alpha, 1e-1, seed = 3).pi, exact)
    val fine = Errors.l1(ForaSeq.compute(g, 0, alpha, 1e-4, seed = 3).pi, exact)
    assert(fine < coarse, s"fine=$fine coarse=$coarse")
  }

  test("FORA: estimate sums to ~1 (push reserve + compensated residues)") {
    val g = GraphGen.randomGraph(25, 0.25, 3)
    val pi = ForaSeq.compute(g, 0, alpha, 1e-3, seed = 4).pi
    assert(math.abs(pi.sum - 1.0) < 0.05, s"sum=${pi.sum}")
  }

  test("FORA: combines push and walk work") {
    val g = GraphGen.randomGraph(40, 0.15, 4)
    val res = ForaSeq.compute(g, 0, alpha, 1e-3, seed = 5)
    assert(res.edgeTouches > 0, "push phase should do work")
    assert(res.walkSteps > 0, "walk phase should do work")
  }

  test("FORA: deterministic in the seed") {
    val g = GraphGen.randomGraph(20, 0.2, 5)
    val a = ForaSeq.compute(g, 0, alpha, 1e-2, seed = 6).pi
    val b = ForaSeq.compute(g, 0, alpha, 1e-2, seed = 6).pi
    assert(a.toSeq == b.toSeq)
  }

  test("SpeedPPR: estimate is close to exact PPR at small delta") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.25, 6), 1.2, seed = 6)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val pi = SpeedPprSeq.compute(g, 0, alpha, delta = 1e-4, seed = 7).pi
    assert(Errors.l1(pi, exact) < 0.05, s"l1=${Errors.l1(pi, exact)}")
  }

  test("SpeedPPR: error decreases as delta shrinks") {
    val g = GraphGen.randomGraph(30, 0.2, 7)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val coarse = Errors.l1(SpeedPprSeq.compute(g, 0, alpha, 1e-1, seed = 8).pi, exact)
    val fine = Errors.l1(SpeedPprSeq.compute(g, 0, alpha, 1e-4, seed = 8).pi, exact)
    assert(fine < coarse)
  }

  test("SpeedPPR: deterministic in the seed") {
    val g = GraphGen.randomGraph(20, 0.2, 8)
    val a = SpeedPprSeq.compute(g, 0, alpha, 1e-2, seed = 9).pi
    val b = SpeedPprSeq.compute(g, 0, alpha, 1e-2, seed = 9).pi
    assert(a.toSeq == b.toSeq)
  }

  test("SpeedPPR and FORA agree with each other at small delta") {
    val g = GraphGen.randomGraph(25, 0.25, 9)
    val a = ForaSeq.compute(g, 0, alpha, 1e-4, seed = 10).pi
    val b = SpeedPprSeq.compute(g, 0, alpha, 1e-4, seed = 10).pi
    assert(Errors.l1(a, b) < 0.05)
  }

  test("PowForPush: queue-only and scan-switching agree on the error bound") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(40, 0.2, 10), 0.9, seed = 10)
    val eps = 1e-2
    val theta = Thresholds.localPushL1Theta(g, eps)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    val queueOnly = LocalPushSeq.compute(g, 0, alpha, theta)
    val switching = PowForPushSeq.compute(g, 0, alpha, theta, scanSwitchFrac = 0.0)
    assert(Errors.l1(queueOnly.pi, exact) <= eps + 1e-9)
    assert(Errors.l1(switching.pi, exact) <= eps + 1e-9)
  }

  test("PowForPush with a high switch threshold behaves like LocalPush") {
    val g = GraphGen.randomGraph(30, 0.2, 11)
    val a = PowForPushSeq.compute(g, 0, alpha, 1e-4, scanSwitchFrac = 10.0)
    val b = LocalPushSeq.compute(g, 0, alpha, 1e-4)
    assert(TestUtil.l1Diff(a.pi, b.pi) < 1e-12)
    assert(a.pushOps == b.pushOps)
  }

  test("PowForPush scan mode terminates and respects the residue bound") {
    val g = GraphGen.randomGraph(50, 0.15, 12)
    val theta = 1e-5
    val res = PowForPushSeq.compute(g, 0, alpha, theta, scanSwitchFrac = 0.0)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    // Fact 1 guarantee via theta = eps/||A||1 ⇔ eps = theta*||A||1
    assert(Errors.l1(res.pi, exact) <= theta * g.totalWeight + 1e-9)
  }

  /** (graph, thresholds, source, pushOps, edgeTouches, digest of π̂) for
    * PowForPush with its default switch fraction, recorded from the kernel
    * that queued nodes in a boxed `ArrayDeque`. Some rows switch to scans,
    * some stay in the queue phase. The last source of each graph is its
    * isolated node. Thresholds: `l1` is Thresholds.localPushL1Theta(g, 1e-4),
    * `rmax` is θ = 1e-5.
    */
  private val powForPushGolden: Seq[(String, String, Int, Long, Long, Long)] = Seq(
    ("star", "l1", 0, 6623L, 20747L, 0x5a79e3169980e69aL),
    ("star", "l1", 1, 6624L, 20749L, 0xcc908907dbd35debL),
    ("star", "l1", 301, 0L, 0L, 0x6228503421075d5dL),
    ("star", "rmax", 0, 7225L, 22551L, 0x66cb40adc5878729L),
    ("star", "rmax", 1, 7226L, 22553L, 0x687df459ccee080aL),
    ("star", "rmax", 301, 0L, 0L, 0x6228503421075d5dL),
    ("complete", "l1", 0, 1753L, 141079L, 0x52616f2032fa2d14L),
    ("complete", "l1", 58, 1789L, 143599L, 0x9b16eba70323a1d7L),
    ("complete", "l1", 80, 0L, 0L, 0x0edbe9edbe9a769fL),
    ("complete", "rmax", 0, 1135L, 91852L, 0x8f21aff6776a2910L),
    ("complete", "rmax", 58, 1162L, 93742L, 0x343bb72aeb2ebd87L),
    ("complete", "rmax", 80, 0L, 0L, 0x0edbe9edbe9a769fL),
    ("affinity", "l1", 0, 4489L, 898738L, 0x7bafe7918df64c23L),
    ("affinity", "l1", 147, 4518L, 903906L, 0xeeee991f0ecc1ccfL),
    ("affinity", "l1", 200, 0L, 0L, 0x9eefbe53f53426bfL),
    ("affinity", "rmax", 0, 1094L, 221324L, 0x6aafd5bca1eee442L),
    ("affinity", "rmax", 147, 1165L, 235051L, 0x76ada0db78489b6bL),
    ("affinity", "rmax", 200, 0L, 0L, 0x9eefbe53f53426bfL),
    ("chunglu", "l1", 0, 43347L, 412728L, 0xb49b9cbdc7dde85fL),
    ("chunglu", "l1", 735, 43543L, 413801L, 0x815956e69bab1c3eL),
    ("chunglu", "l1", 2000, 0L, 0L, 0x3b2ea13140ff989fL),
    ("chunglu", "rmax", 0, 2198L, 36979L, 0x138e0f6b816ac753L),
    ("chunglu", "rmax", 735, 713L, 7415L, 0xa10754f1db62b2f1L),
    ("chunglu", "rmax", 2000, 0L, 0L, 0x3b2ea13140ff989fL)
  )

  for (graph <- Seq("star", "complete", "affinity", "chunglu"); kind <- Seq("l1", "rmax"))
    test(s"golden: PowForPush on the $graph graph, $kind threshold: push counts and π̂ bits unchanged") {
      val g = Goldens.graphs(graph)
      val theta = if (kind == "l1") Thresholds.localPushL1Theta(g, 1e-4) else 1e-5
      for ((_, _, s, ops, touches, digest) <- powForPushGolden.filter(r => r._1 == graph && r._2 == kind)) {
        val res = PowForPushSeq.compute(g, s, alpha, theta)
        assert((res.pushOps, res.edgeTouches, Goldens.bitsDigest(res.pi)) == ((ops, touches, digest)), s"source $s")
      }
    }

  /** (graph, source, pushOps, edgeTouches, walkSteps, digest of π̂) for
    * SpeedPPR with δ = 1e-3 and its default seed, recorded from the kernel
    * that queued nodes in a boxed `ArrayDeque`.
    */
  private val speedPprGolden: Seq[(String, Int, Long, Long, Long, Long)] = Seq(
    ("star", 0, 1805L, 5713L, 37129L, 0xb5bef0c7a57cb086L),
    ("star", 1, 1806L, 5715L, 38032L, 0xd7583d052a9a3225L),
    ("star", 301, 0L, 0L, 0L, 0xc30817cbdf9c735bL),
    ("complete", 0, 60L, 4740L, 43238L, 0x382ad5789f0c486dL),
    ("complete", 58, 60L, 4740L, 43238L, 0x19254871df43e7ccL),
    ("complete", 80, 0L, 0L, 0L, 0x1593ee1240c22569L),
    ("affinity", 0, 191L, 39014L, 189423L, 0x4aeb6cf7a396b340L),
    ("affinity", 147, 197L, 40610L, 205340L, 0x3f5fdad208936165L),
    ("affinity", 200, 0L, 0L, 0L, 0x0600d9ac0b033b89L),
    ("chunglu", 0, 2738L, 42192L, 188804L, 0xdb42bec6ae91f726L),
    ("chunglu", 735, 826L, 8346L, 113077L, 0x1004482c768d397cL),
    ("chunglu", 2000, 0L, 0L, 0L, 0x202136cebf368369L)
  )

  test("golden: SpeedPPR counts and π̂ bits unchanged on the golden graphs") {
    for ((graph, s, ops, touches, steps, digest) <- speedPprGolden) {
      val res = SpeedPprSeq.compute(Goldens.graphs(graph), s, alpha, 1e-3)
      assert((res.pushOps, res.edgeTouches, res.walkSteps, Goldens.bitsDigest(res.pi)) ==
        ((ops, touches, steps, digest)), s"$graph source $s")
    }
  }

  /** (graph, source, pushOps, edgeTouches, walkSteps, digest of π̂) for FORA
    * with δ = 1e-3 and its default seed, recorded from the kernel that
    * rebuilt a 2m-long prefix-sum index per query and drew from
    * `scala.util.Random`.
    */
  private val foraGolden: Seq[(String, Int, Long, Long, Long, Long)] = Seq(
    ("star", 0, 1805L, 3599L, 37129L, 0x1642d7a729cd8d6cL),
    ("star", 1, 1508L, 3302L, 38242L, 0x3da938766bd7fffeL),
    ("star", 301, 0L, 0L, 0L, 0xc30817cbdf9c735bL),
    ("complete", 0, 60L, 4740L, 43238L, 0x382ad5789f0c486dL),
    ("complete", 58, 60L, 4740L, 43238L, 0x19254871df43e7ccL),
    ("complete", 80, 0L, 0L, 0L, 0x1593ee1240c22569L),
    ("affinity", 0, 191L, 38009L, 188020L, 0x249a68ab6ca335faL),
    ("affinity", 147, 192L, 38208L, 206445L, 0xace7afa6c983a6efL),
    ("affinity", 200, 0L, 0L, 0L, 0x0600d9ac0b033b89L),
    ("chunglu", 0, 2766L, 25933L, 187306L, 0x83f91e570ba0da50L),
    ("chunglu", 735, 826L, 8346L, 113077L, 0x1004482c768d397cL),
    ("chunglu", 2000, 0L, 0L, 0L, 0x202136cebf368369L)
  )

  test("golden: FORA counts and π̂ bits unchanged on the golden graphs") {
    for ((graph, s, ops, touches, steps, digest) <- foraGolden) {
      val res = ForaSeq.compute(Goldens.graphs(graph), s, alpha, 1e-3)
      assert((res.pushOps, res.edgeTouches, res.walkSteps, Goldens.bitsDigest(res.pi)) ==
        ((ops, touches, steps, digest)), s"$graph source $s")
    }
  }
}
