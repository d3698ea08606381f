package perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.dist.{DistPprResult, EdgePushDF, GraphFrames, LocalPushDF}
import repro.graph.WeightedGraph
import repro.graphgen.GraphGen
import repro.motif.MotifWeights
import Runner.Alpha

/** The Spark workload: EdgePushDF against LocalPushDF on the
  * clique3-motif-weighted Chung–Lu graph of `DistDataflowJob`.
  */
object DistBench {
  private val Rmax = 1e-4
  /** Local property naming the query a Spark job belongs to. */
  val QueryProperty = "perfbench.query"

  /** The session settings of the test suite (64 shuffle partitions, no
    * broadcast joins). The warehouse directory lies inside `workDir`;
    * run.py points SPARK_LOCAL_DIRS there too.
    */
  def session(workDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()

  /** The graph is fixed (`DistDataflowJob`'s seed); the benchmark seed
    * draws the query sources.
    */
  def workload(spark: SparkSession, smoke: Boolean,
               accounting: Option[SparkAccounting]): Workload = {
    val n = if (smoke) 300 else 1200
    // A query takes 2–5 supersteps of ~1 s, so one pass over five sources
    // outlasts a run's --seconds. Five strata fix the median query's
    // superstep count for every seed; with three it moved by one step
    // between seeds. The smoke graph's queries take 5–7 supersteps, so a
    // smoke run queries two sources only.
    new DistWorkload(spark, n,
      GraphGen.undirectedEdges(GraphGen.chungLu(n, avgDeg = 12, beta = 2.3, seed = 7)),
      accounting, poolSize = if (smoke) 2 else 5)
  }

  private final class DistWorkload(spark: SparkSession, n: Int,
                                   edges: Seq[(Int, Int, Double)],
                                   accounting: Option[SparkAccounting],
                                   val poolSize: Int) extends Workload {
    val setupRepeats = 3
    // Under C1 (run.py) one warm-up source suffices: the first timed query
    // then ran within ~7% of its steady time.
    val warmupSources = 1
    val referenceSources = 1
    val checkEveryQuery = true

    def setup(rec: Recorder): Prepared = {
      val base = rec.time("graph.build")(WeightedGraph.fromUndirectedEdges(n, edges))._1
      val g = rec.time("motif.weight")(MotifWeights.motifWeightedGraph(base))._1
      val (edgeDF, thetaEdges) = rec.time("graphframes.setup") {
        val e = g.toEdgeDF(spark).cache()
        e.count()
        (e, GraphFrames.materialize(GraphFrames.withRmaxTheta(e, Rmax)))
      }._1
      val norm = Guarantee.NormalizedAdditive(Rmax)
      Prepared(g, Seq(
        Method("edgepushdf", Role.Edge, norm, (s, q) =>
          query(rec, "edgepushdf", q, g.n)(EdgePushDF.compute(spark, thetaEdges, s, Alpha))),
        Method("localpushdf", Role.Node, norm, (s, q) =>
          query(rec, "localpushdf", q, g.n)(LocalPushDF.compute(spark, edgeDF, s, Alpha, Rmax))),
      ), Seq(edgeDF, thetaEdges))
    }

    override def release(p: Prepared): Unit = p.live.foreach {
      case df: DataFrame => df.unpersist(blocking = true)
      case _ =>
    }

    override def finish(rec: Recorder): Unit = accounting.foreach(_.attach(rec))

    /** Runs one query and collects π̂ into a local array; Spark jobs
      * started meanwhile are tagged with the query id.
      */
    private def query(rec: Recorder, layer: String, q: Int, n: Int)
                     (compute: => DistPprResult): Outcome = {
      val sc = spark.sparkContext
      sc.setLocalProperty(QueryProperty, q.toString)
      try {
        val res = compute
        val pi = rec.time(s"$layer.collect", query = q)(GraphFrames.toDense(res.pi, n, "pi"))._1
        new Outcome(pi, res.edgeTouches, 0L, 0L, res.supersteps, properties(res, pi))
      } finally sc.setLocalProperty(QueryProperty, null)
    }
  }

  /** The query ended by termination, not by the superstep cap the
    * implementations apply silently, and π̂ is a sub-distribution.
    */
  private def properties(res: DistPprResult, pi: Array[Double]): Option[String] = {
    val cap = 500 // the default maxSupersteps of EdgePushDF and LocalPushDF
    val mass = pi.sum
    if (res.supersteps >= cap) Some(s"stopped at the superstep cap ($cap) without terminating")
    else if (mass > 1 + 1e-9) Some(f"Σπ̂ = $mass%.12f > 1")
    else pi.indices.find(pi(_) < 0).map(u => s"π̂($u) = ${pi(u)} < 0")
  }
}

/** Spark's own accounting per query: jobs, tasks and shuffle reads,
  * attributed through the query id local property. Listener events
  * arrive on Spark's listener thread, after the query has returned.
  */
final class SparkAccounting extends SparkListener {
  private final class Job(val query: Int, val startMs: Long) {
    var endMs = -1L
    var tasks = 0L
    var records = 0L
    var bytes = 0L
  }
  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.Map.empty[Int, Int]
  private var events = 0L
  private val anchorNs = System.nanoTime()
  private val anchorMs = System.currentTimeMillis()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    events += 1
    val q = Option(e.properties).flatMap(p => Option(p.getProperty(DistBench.QueryProperty)))
    jobs(e.jobId) = new Job(q.map(_.toInt).getOrElse(0), e.time)
    e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    events += 1
    for (id <- stageJob.get(e.stageId); j <- jobs.get(id)) {
      j.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        j.records += m.shuffleReadMetrics.recordsRead
        j.bytes += m.shuffleReadMetrics.totalBytesRead
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    events += 1
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  /** Waits until every job started has ended and no event has arrived
    * for a while, then adds one span per job under its query's span and
    * sums the job counts into the query span.
    */
  def attach(rec: Recorder): Unit = {
    var seen = -1L
    val deadline = System.nanoTime() + 30000000000L
    while (synchronized(events != seen || jobs.values.exists(_.endMs < 0)) &&
           System.nanoTime() < deadline) {
      seen = synchronized(events)
      Thread.sleep(200)
    }
    val queries = rec.spans.filter(_.parent == 0).map(s => s.query -> s).toMap
    def ns(ms: Long) = anchorNs + (ms - anchorMs) * 1000000L
    synchronized(jobs.values.toList).foreach { j =>
      val owner = queries.get(j.query).filter(_ => j.query != 0)
      val span = rec.add(owner.map(_.id).getOrElse(0), j.query, "spark.job",
        owner.map(_.phase).getOrElse("setup"), ns(j.startMs), ns(j.endMs))
      span.sparkTasks = j.tasks
      span.shuffleRecords = j.records
      span.shuffleBytes = j.bytes
      owner.foreach { o =>
        o.sparkJobs += 1
        o.sparkTasks += j.tasks
        o.shuffleRecords += j.records
        o.shuffleBytes += j.bytes
      }
    }
  }
}
