package repro.core.dist

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.TestUtil
import repro.core.Thresholds
import repro.graphgen.GraphGen
import repro.metrics.Errors

class EdgePushDFSpec extends SparkSpec {

  private lazy val g = GraphGen.withParetoWeights(GraphGen.randomGraph(30, 0.2, 4), 0.8, seed = 4)
  private val alpha = 0.2

  test("terminates with the Theorem-2 l1 guarantee") {
    val eps = 1e-2
    val te = GraphFrames.withL1Theta(g.toEdgeDF(spark), eps)
    val res = EdgePushDF.compute(spark, te, 0L, alpha)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    assert(Errors.l1(got, exact) <= eps + 1e-9, s"l1=${Errors.l1(got, exact)}")
  }

  test("terminates with the Theorem-3 normalized additive guarantee") {
    val rmax = 1e-3
    val te = GraphFrames.withRmaxTheta(g.toEdgeDF(spark), rmax)
    val res = EdgePushDF.compute(spark, te, 1L, alpha)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 1, alpha)
    (0 until g.n).foreach { u =>
      if (g.deg(u) > 0)
        assert(math.abs(got(u) - exact(u)) / g.deg(u) <= rmax + 1e-12, s"node $u")
    }
  }

  test("estimate underestimates exact PPR (alpha*q property)") {
    val te = GraphFrames.withL1Theta(g.toEdgeDF(spark), 1e-2)
    val res = EdgePushDF.compute(spark, te, 0L, alpha)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    val exact = TestUtil.exactPpr(g, 0, alpha)
    (0 until g.n).foreach(u => assert(got(u) <= exact(u) + 1e-9))
  }

  test("agrees with the sequential EdgePush within the combined error budget") {
    val eps = 1e-2
    val te = GraphFrames.withL1Theta(g.toEdgeDF(spark), eps)
    val dfPi = GraphFrames.toDense(
      EdgePushDF.compute(spark, te, 0L, alpha).pi.withColumnRenamed("pi", "value"), g.n)
    val seqPi = repro.core.EdgePushSeq.compute(g, 0, alpha, Thresholds.l1(g, eps)).pi
    // both are ε-accurate underestimates; schedules differ so allow 2ε
    assert(Errors.l1(dfPi, seqPi) <= 2 * eps + 1e-9)
  }

  test("edge-granular work: first superstep touches only the candidate edges of s") {
    val rmax = 1e-4
    val te = GraphFrames.withRmaxTheta(g.toEdgeDF(spark), rmax)
    val res = EdgePushDF.compute(spark, te, 0L, alpha)
    assert(res.supersteps > 0)
    // Candidates at step 0: edges of s with (1-α)w/d(s) ≥ θ — at most n(s).
    assert(res.perStepWork.head <= g.nbrCount(0).toLong)
  }

  test("on an unbalanced star, EdgePushDF does less total work than LocalPushDF") {
    val star = GraphGen.unbalancedStar(100)
    val rmax = 1e-4
    val edges = star.toEdgeDF(spark)
    val lp = LocalPushDF.compute(spark, edges, 0L, alpha, rmax)
    val ep = EdgePushDF.compute(spark, GraphFrames.withRmaxTheta(edges, rmax), 0L, alpha)
    assert(ep.edgeTouches < lp.edgeTouches,
      s"EdgePushDF=${ep.edgeTouches} LocalPushDF=${lp.edgeTouches}")
    // and both still meet the error bound
    val exact = TestUtil.exactPpr(star, 0, alpha)
    val gotEp = GraphFrames.toDense(ep.pi.withColumnRenamed("pi", "value"), star.n)
    (0 until star.n).foreach { u =>
      if (star.deg(u) > 0)
        assert(math.abs(gotEp(u) - exact(u)) / star.deg(u) <= rmax + 1e-12)
    }
  }

  test("huge thresholds mean zero supersteps and pi = alpha*e_s") {
    val te = GraphFrames.withL1Theta(g.toEdgeDF(spark), 1e-9)
      .withColumn("theta", org.apache.spark.sql.functions.lit(100.0))
    val res = EdgePushDF.compute(spark, te, 0L, alpha)
    assert(res.supersteps == 0)
    val got = GraphFrames.toDense(res.pi.withColumnRenamed("pi", "value"), g.n)
    assert(math.abs(got(0) - alpha) < 1e-12)
    assert(got.sum - alpha < 1e-12)
  }

  test("a run stopped by maxSupersteps reports converged = false") {
    val rmax = 1e-3
    val te = GraphFrames.withRmaxTheta(g.toEdgeDF(spark), rmax)
    val full = EdgePushDF.compute(spark, te, 1L, alpha)
    assert(full.converged && full.supersteps > 1)
    val capped = EdgePushDF.compute(spark, te, 1L, alpha, maxSupersteps = 1)
    assert(!capped.converged)
    assert(capped.supersteps == 1 && capped.perStepWork == full.perStepWork.take(1))
    // the state after the one applied superstep, not after the check pass
    val oracle = EdgePushBsp.run(g, 1, alpha, Thresholds.rmax(g, rmax), maxSupersteps = 1)
    val got = GraphFrames.toDense(capped.pi, g.n, "pi")
    assert(TestUtil.l1Diff(got, oracle.pi) <= 1e-12)
  }

  test("a query runs at most 2 Spark jobs per pass") {
    val te = GraphFrames.materialize(GraphFrames.withRmaxTheta(g.toEdgeDF(spark), 1e-3))
    val sc = spark.sparkContext
    val tag = "EdgePushDFSpec.jobs"
    val jobs = new AtomicInteger
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(tag))) match {
          case Some("query") => jobs.incrementAndGet()
          case Some("marker") => marker.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(tag, "query")
      val res = try EdgePushDF.compute(spark, te, 1L, alpha)
      finally sc.setLocalProperty(tag, "marker")
      // listener events arrive in order: once the marker job is seen, so
      // is every job of the query
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(tag, null)
      assert(marker.await(60, TimeUnit.SECONDS))
      assert(res.supersteps > 1)
      assert(jobs.get <= 2 * (res.supersteps + 1),
        s"${jobs.get} jobs for ${res.supersteps} supersteps")
    } finally sc.removeSparkListener(listener)
  }
}
