package repro.core.dist

import repro.SparkSpec
import repro.TestUtil
import repro.metrics.Errors
import repro.graphgen.GraphGen

class LocalPushDFSpec extends SparkSpec {

  private lazy val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, 3), 0.9, seed = 3)
  private val alpha = 0.2

  test("terminates with the Fact-1 l1 guarantee") {
    val eps = 1e-2
    val theta = eps / g.totalWeight
    val res = LocalPushDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, theta)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    assert(Errors.l1(got, exact) <= eps + 1e-9)
  }

  test("terminates with the Fact-2 normalized additive guarantee") {
    val rmax = 1e-3
    val res = LocalPushDF.compute(spark, g.toEdgeDF(spark), 1L, alpha, rmax)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 1, alpha)
    (0 until g.n).foreach { u =>
      if (g.deg(u) > 0)
        assert(math.abs(got(u) - exact(u)) / g.deg(u) <= rmax + 1e-12, s"node $u")
    }
  }

  test("estimate underestimates exact PPR (reserve property)") {
    val res = LocalPushDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, 1e-3)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    (0 until g.n).foreach(u => assert(got(u) <= exact(u) + 1e-9))
  }

  test("per-superstep work sums over active nodes' full neighborhoods") {
    val res = LocalPushDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, 1e-2)
    assert(res.supersteps > 0)
    assert(res.perStepWork.length == res.supersteps)
    // the first superstep pushes exactly the source: work = n(s)
    assert(res.perStepWork.head == g.nbrCount(0).toLong)
  }

  test("huge theta means zero supersteps") {
    val res = LocalPushDF.compute(spark, g.toEdgeDF(spark), 0L, alpha, 1e3)
    assert(res.supersteps == 0)
    assert(res.edgeTouches == 0)
  }

  test("a run stopped by maxSupersteps reports converged = false") {
    val rmax = 1e-3
    val full = LocalPushDF.compute(spark, g.toEdgeDF(spark), 1L, alpha, rmax)
    assert(full.converged && full.supersteps > 1)
    val capped = LocalPushDF.compute(spark, g.toEdgeDF(spark), 1L, alpha, rmax, maxSupersteps = 1)
    assert(!capped.converged)
    assert(capped.supersteps == 1 && capped.perStepWork == full.perStepWork.take(1))
    val oracle = LocalPushBsp.run(g, 1, alpha, rmax, maxSupersteps = 1)
    val got = GraphFrames.toDense(capped.pi, g.n, "pi")
    assert(TestUtil.l1Diff(got, oracle.pi) <= 1e-12)
  }
}
