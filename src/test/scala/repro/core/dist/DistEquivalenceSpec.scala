package repro.core.dist

import repro.SparkSpec
import repro.TestUtil
import repro.core.{EdgePushSeq, LocalPushSeq, PowerMethodSeq, Thresholds}
import repro.graphgen.GraphGen
import repro.metrics.Errors

/** Cross-implementation equivalence: the distributed DataFrame algorithms
  * and their sequential references must agree on the same graphs within
  * the analytical error budgets.
  */
class DistEquivalenceSpec extends SparkSpec {

  private val alpha = 0.2

  for (seed <- 1 to 3)
    test(s"PowerMethodDF == PowerMethodSeq exactly (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(20, 0.25, seed), 1.0, seed = seed)
      val df = PowerMethodDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, 12)
      val got = GraphFrames.toDense(df.pi.withColumnRenamed("pi", "value"), g.n)
      val want = PowerMethodSeq.compute(g, 0, alpha, 12).pi
      assert(TestUtil.l1Diff(got, want) < 1e-9)
    }

  for (seed <- 1 to 3)
    test(s"LocalPushDF and LocalPushSeq both satisfy Fact 2 (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.2, seed), 0.9, seed = seed)
      val rmax = 1e-3
      val exact = TestUtil.exactPpr(g, 0, alpha)
      val seqPi = LocalPushSeq.compute(g, 0, alpha, rmax).pi
      val df = LocalPushDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, rmax)
      val dfPi = dense(df, g.n)
      Seq(seqPi, dfPi).foreach { pi =>
        (0 until g.n).foreach { u =>
          if (g.deg(u) > 0)
            assert(math.abs(pi(u) - exact(u)) / g.deg(u) <= rmax + 1e-12)
        }
      }
      assertSameRun(df, dfPi, LocalPushBsp.run(g, 0, alpha, rmax))
    }

  for (seed <- 1 to 3)
    test(s"EdgePushDF and EdgePushSeq both satisfy Theorem 2 (seed=$seed)") {
      val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.2, seed), 0.9, seed = seed)
      val eps = 1e-2
      val exact = TestUtil.exactPpr(g, 0, alpha)
      val seqPi = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, eps)).pi
      val df = EdgePushDF.compute(spark, GraphFrames.withL1Theta(g.toEdgeDF(spark), eps), 0L, alpha)
      val dfPi = dense(df, g.n)
      assert(Errors.l1(seqPi, exact) <= eps + 1e-9)
      assert(Errors.l1(dfPi, exact) <= eps + 1e-9)
      assertSameRun(df, dfPi, EdgePushBsp.run(g, 0, alpha, Thresholds.l1(g, eps)))
    }

  test("EdgePushDF and LocalPushDF match their BSP oracles under Theorem-3 thresholds") {
    val g = GraphGen.withParetoWeights(GraphGen.randomGraph(25, 0.2, 1), 0.9, seed = 1)
    val rmax = 1e-4
    val edges = g.toEdgeDF(spark)
    val ep = EdgePushDF.compute(spark, GraphFrames.withRmaxTheta(edges, rmax), 2L, alpha)
    assertSameRun(ep, dense(ep, g.n), EdgePushBsp.run(g, 2, alpha, Thresholds.rmax(g, rmax)))
    val lp = LocalPushDF.compute(spark, edges, 2L, alpha, rmax)
    assertSameRun(lp, dense(lp, g.n), LocalPushBsp.run(g, 2, alpha, rmax))
  }

  test("distributed work ordering matches sequential ordering on an unbalanced graph") {
    val g = GraphGen.unbalancedStar(120)
    val eps = 0.02
    val seqLp = LocalPushSeq.compute(g, 0, alpha, Thresholds.localPushL1Theta(g, eps))
    val seqEp = EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, eps))
    val edges = g.toEdgeDF(spark)
    val dfLp = LocalPushDF.compute(spark, edges, 0L, alpha, Thresholds.localPushL1Theta(g, eps))
    val dfEp = EdgePushDF.compute(spark, GraphFrames.withL1Theta(edges, eps), 0L, alpha)
    // EdgePush beats LocalPush in both execution models
    assert(seqEp.totalWork < seqLp.totalWork)
    assert(dfEp.edgeTouches < dfLp.edgeTouches)
    assertSameRun(dfLp, dense(dfLp, g.n),
      LocalPushBsp.run(g, 0, alpha, Thresholds.localPushL1Theta(g, eps)))
    assertSameRun(dfEp, dense(dfEp, g.n), EdgePushBsp.run(g, 0, alpha, Thresholds.l1(g, eps)))
  }

  private def dense(res: DistPprResult, n: Int): Array[Double] =
    GraphFrames.toDense(res.pi, n, "pi")

  /** The dataflow ran the oracle's supersteps to termination: the same
    * number, the same work in each, and the same π̂ up to summation order.
    */
  private def assertSameRun(df: DistPprResult, dfPi: Array[Double], bsp: BspRun): Unit = {
    assert(df.converged && bsp.converged)
    assert(df.supersteps == bsp.supersteps)
    assert(df.perStepWork == bsp.perStepWork)
    assert(TestUtil.l1Diff(dfPi, bsp.pi) <= 1e-12, s"l1 diff ${TestUtil.l1Diff(dfPi, bsp.pi)}")
  }
}
