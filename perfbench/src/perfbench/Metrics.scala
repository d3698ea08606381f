package perfbench

/** The per-layer metrics of a traced run, read off its spans.
  *
  * Every workload prints the same names; a layer the workload does not
  * run reads 0. Counts per query are means over the first timed pass
  * over the `poolSize` sources, which is the same queries in every run of
  * a seed, so they repeat exactly. Times are taken over every timed query.
  */
object Metrics {
  private val MiB = 1024.0 * 1024.0

  /** The spans of one layer's timed queries, with their summaries. */
  private final class Layer(rec: Recorder, name: String, poolSize: Int) {
    val timed = rec.spans.filter(s => s.phase == "timed" && s.name == name).toSeq
    val first = timed.take(poolSize)
    private def meanOf(xs: Seq[Span])(f: Span => Double) = Stats.mean(xs.map(f))
    private def sumOf(xs: Seq[Span])(f: Span => Double) = xs.map(f).sum

    def p50Ms: Double = if (timed.isEmpty) 0.0 else Stats.median(timed.map(_.ms))
    /** Only with at least ten samples beyond it. */
    def p90Ms: Double = if (timed.length < 100) 0.0 else Stats.percentile(timed.map(_.ms), 90)
    def samples: Double = timed.length.toDouble
    def allocMbPerQuery: Double = meanOf(timed)(_.allocBytes / MiB)
    def nsPerTouch: Double = Stats.ratio(sumOf(timed)(_.nanos), sumOf(timed)(_.touches))
    def nsPerStep: Double = Stats.ratio(sumOf(timed)(_.nanos), sumOf(timed)(_.walkSteps))
    def touchesPerQuery: Double = meanOf(first)(_.touches)
    def pushOpsPerQuery: Double = meanOf(first)(_.pushOps)
    def walkStepsPerQuery: Double = meanOf(first)(_.walkSteps)
    def zeroPushMs: Double = {
      val probes = rec.spans.filter(s => s.phase == "probe" && s.name == name).map(_.ms)
      if (probes.isEmpty) 0.0 else Stats.median(probes.toSeq)
    }
    def superstepsPerQuery: Double = meanOf(first)(_.supersteps)
    def msPerSuperstep: Double = Stats.ratio(sumOf(timed)(_.ms), sumOf(timed)(_.supersteps))
    def jobsPerSuperstep: Double =
      Stats.ratio(sumOf(first)(_.sparkJobs), sumOf(first)(_.supersteps))
    def shuffleRecordsPerQuery: Double = meanOf(first)(_.shuffleRecords)
    def shuffleMbPerQuery: Double = meanOf(first)(_.shuffleBytes / MiB)
    def rowsPerTouch: Double =
      Stats.ratio(sumOf(first)(_.shuffleRecords), sumOf(first)(_.touches))
    def collectMs: Double = {
      val ids = timed.map(_.id).toSet
      meanOf(rec.spans.filter(s => s.name == s"$name.collect" && ids(s.parent)).toSeq)(_.ms)
    }
  }

  private def setupStepMs(rec: Recorder, step: String): Double = {
    val xs = rec.spans.filter(s => s.phase == "setup" && s.name == step).map(_.ms)
    if (xs.isEmpty) 0.0 else Stats.median(xs.toSeq)
  }

  def perLayer(rec: Recorder, poolSize: Int, gcCount: Long, gcMillis: Long,
               allocBytes: Long): Seq[Metric] = {
    def layer(name: String) = new Layer(rec, name, poolSize)
    val ep = layer("edgepush")
    val lp = layer("localpush")
    val pfp = layer("powforpush")
    val mc = layer("montecarlo")
    val fora = layer("fora")
    val speed = layer("speedppr")
    def dist(prefix: String): Seq[Metric] = {
      val l = layer(prefix)
      Seq(
        Metric(s"$prefix.supersteps_per_query", "count", l.superstepsPerQuery),
        Metric(s"$prefix.ms_per_superstep", "ms", l.msPerSuperstep),
        Metric(s"$prefix.spark_jobs_per_superstep", "count", l.jobsPerSuperstep),
        Metric(s"$prefix.shuffle_records_per_query", "count", l.shuffleRecordsPerQuery),
        Metric(s"$prefix.shuffle_mb_per_query", "MB", l.shuffleMbPerQuery),
        Metric(s"$prefix.rows_per_touch", "count", l.rowsPerTouch),
        Metric(s"$prefix.touches_per_query", "count", l.touchesPerQuery),
        Metric(s"$prefix.collect_ms", "ms", l.collectMs),
      )
    }
    val jobs = rec.spans.filter(s => s.name == "spark.job" && s.phase == "timed").toSeq
    val timedQueries = rec.spans.filter(s => s.phase == "timed" && s.parent == 0).toSeq
    Seq(
      Metric("graph.build_ms", "ms", setupStepMs(rec, "graph.build")),
      Metric("thresholds.build_ms", "ms", setupStepMs(rec, "thresholds.build")),
      Metric("motif.weight_ms", "ms", setupStepMs(rec, "motif.weight")),
      Metric("graphframes.setup_ms", "ms", setupStepMs(rec, "graphframes.setup")),
      Metric("edgepush.zero_push_ms", "ms", ep.zeroPushMs),
      Metric("edgepush.alloc_mb_per_query", "MB", ep.allocMbPerQuery),
      Metric("edgepush.ns_per_touch", "ns", ep.nsPerTouch),
      Metric("edgepush.touches_per_query", "count", ep.touchesPerQuery),
      Metric("edgepush.push_ops_per_query", "count", ep.pushOpsPerQuery),
      Metric("edgepush.p90_ms", "ms", ep.p90Ms),
      Metric("edgepush.samples", "count", ep.samples),
      Metric("localpush.zero_push_ms", "ms", lp.zeroPushMs),
      Metric("localpush.alloc_mb_per_query", "MB", lp.allocMbPerQuery),
      Metric("localpush.ns_per_touch", "ns", lp.nsPerTouch),
      Metric("localpush.touches_per_query", "count", lp.touchesPerQuery),
      Metric("localpush.p90_ms", "ms", lp.p90Ms),
      Metric("localpush.samples", "count", lp.samples),
      Metric("powforpush.ns_per_touch", "ns", pfp.nsPerTouch),
      Metric("powforpush.touches_per_query", "count", pfp.touchesPerQuery),
      Metric("powforpush.alloc_mb_per_query", "MB", pfp.allocMbPerQuery),
      Metric("montecarlo.p50_ms", "ms", mc.p50Ms),
      Metric("fora.p50_ms", "ms", fora.p50Ms),
      Metric("speedppr.p50_ms", "ms", speed.p50Ms),
      Metric("montecarlo.walk_steps_per_query", "count", mc.walkStepsPerQuery),
      Metric("fora.walk_steps_per_query", "count", fora.walkStepsPerQuery),
      Metric("speedppr.walk_steps_per_query", "count", speed.walkStepsPerQuery),
      Metric("montecarlo.alloc_mb_per_query", "MB", mc.allocMbPerQuery),
      Metric("fora.alloc_mb_per_query", "MB", fora.allocMbPerQuery),
      Metric("speedppr.alloc_mb_per_query", "MB", speed.allocMbPerQuery),
      Metric("montecarlo.ns_per_step", "ns", mc.nsPerStep),
    ) ++ dist("edgepushdf") ++ dist("localpushdf") ++ Seq(
      Metric("spark.job_ms", "ms", Stats.mean(jobs.map(_.ms))),
      Metric("spark.tasks_per_job", "count", Stats.mean(jobs.map(_.sparkTasks.toDouble))),
      Metric("jvm.gc_ms", "ms", gcMillis.toDouble),
      Metric("jvm.gc_count", "count", gcCount.toDouble),
      Metric("jvm.alloc_mb", "MB", allocBytes / MiB),
      Metric("bench.check_s", "s", rec.checkSeconds),
      Metric("trace.overhead_ms", "ms", Stats.mean(timedQueries.map(_.overheadNs / 1e6))),
    )
  }
}
