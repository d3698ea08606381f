package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestUtil
import repro.graph.WeightedGraph
import repro.graphgen.GraphGen
import repro.metrics.{Errors, Unbalancedness}

/** ScalaCheck properties: the paper's inequalities on arbitrary random
  * weighted graphs.
  */
object PushProps extends Properties("Push") {

  private val alpha = 0.2

  private val graphGen = for {
    n <- Gen.choose(8, 40)
    p <- Gen.choose(5, 30).map(_ / 100.0)
    seed <- Gen.choose(0L, 10000L)
    pareto <- Gen.oneOf(0.7, 1.0, 2.0)
  } yield GraphGen.withParetoWeights(GraphGen.randomGraph(n, p, seed), pareto, seed = seed)

  property("cos2phi in (0,1]") = Prop.forAll(graphGen) { g =>
    val c = Unbalancedness.cos2Phi(g)
    c > 0 && c <= 1 + 1e-12
  }

  property("l1 thresholds sum to eps") = Prop.forAll(graphGen) { g =>
    math.abs(Thresholds.l1(g, 1e-3).sum - 1e-3) < 1e-12
  }

  property("EdgePush l1 error within eps") = Prop.forAll(graphGen) { g =>
    val s = g.sampleSourcesByDegree(1, 1)(0)
    val pi = EdgePushSeq.compute(g, s, alpha, Thresholds.l1(g, 1e-2)).pi
    Errors.l1(pi, TestUtil.exactPpr(g, s, alpha)) <= 1e-2 + 1e-9
  }

  property("LocalPush l1 error within eps") = Prop.forAll(graphGen) { g =>
    val s = g.sampleSourcesByDegree(1, 2)(0)
    val pi = LocalPushSeq.compute(g, s, alpha, Thresholds.localPushL1Theta(g, 1e-2)).pi
    Errors.l1(pi, TestUtil.exactPpr(g, s, alpha)) <= 1e-2 + 1e-9
  }

  property("EdgePush underestimates exact PPR") = Prop.forAll(graphGen) { g =>
    val s = g.sampleSourcesByDegree(1, 3)(0)
    val pi = EdgePushSeq.compute(g, s, alpha, Thresholds.l1(g, 1e-2)).pi
    val exact = TestUtil.exactPpr(g, s, alpha)
    (0 until g.n).forall(u => pi(u) <= exact(u) + 1e-9)
  }

  property("theoretical EdgePush cost never exceeds LocalPush cost") =
    Prop.forAll(graphGen) { g =>
      Unbalancedness.TheoreticalCost.edgePushL1(g, alpha, 1e-3) <=
        Unbalancedness.TheoreticalCost.localPushL1(g, alpha, 1e-3) + 1e-9
    }

  property("EdgePush rmax error bound holds per node") = Prop.forAll(graphGen) { g =>
    val s = g.sampleSourcesByDegree(1, 4)(0)
    val pi = EdgePushSeq.compute(g, s, alpha, Thresholds.rmax(g, 1e-2)).pi
    val exact = TestUtil.exactPpr(g, s, alpha)
    (0 until g.n).forall(u =>
      g.deg(u) == 0 || math.abs(pi(u) - exact(u)) / g.deg(u) <= 1e-2 + 1e-12)
  }

  // Random graphs with weights log-uniform over [1e-12, 1e12].
  private val wideGraphGen = for {
    n <- Gen.choose(8, 30)
    p <- Gen.choose(10, 30).map(_ / 100.0)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    WeightedGraph.fromUndirectedEdges(n, GraphGen.undirectedEdges(GraphGen.randomGraph(n, p, seed))
      .map { case (u, v, _) => (u, v, math.pow(10, -12 + 24 * rnd.nextDouble())) })
  }

  property("EdgePush certificate: R_e < θ_e and Σπ̂ + ΣR = 1 for weights from 1e-12 to 1e12") =
    Prop.forAll(wideGraphGen, Gen.oneOf("l1", "rmax"), Gen.oneOf(None, Some(0.0))) { (g, kind, mode) =>
      val s = g.sampleSourcesByDegree(1, 5)(0)
      val theta = if (kind == "l1") Thresholds.l1(g, 1e-3) else Thresholds.rmax(g, 1e-4)
      val (res, q, expense) = EdgePushSeq.run(g, s, alpha, theta, mode)
      // R_e is rounded relative to Q_e + θ_e; a node without edges keeps (1−α)·q(u)
      var certified = true
      var residue = 0.0
      for (u <- 0 until g.n)
        if (g.deg(u) > 0) for (e <- g.indptr(u) until g.indptr(u + 1)) {
          val r = (1 - alpha) * q(u) / g.deg(u) * g.wgt(e) - expense(e)
          certified &&= r - theta(e) < 1e-12 * (expense(e) + theta(e))
          residue += r
        }
        else residue += (1 - alpha) * q(u)
      certified && math.abs(res.pi.sum + residue - 1) <= 1e-9
    }
}
