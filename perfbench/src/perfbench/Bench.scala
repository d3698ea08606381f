package perfbench

import repro.graph.WeightedGraph

/** Which end-to-end latency a method's queries feed. */
sealed trait Role
object Role {
  case object Edge extends Role  // edge_query.p50_ms
  case object Node extends Role  // node_query.p50_ms
  case object Other extends Role // queries_per_s only
}

/** A finished query: the estimate π̂, the work the method reports, and
  * the method's own termination and conservation properties, which are
  * evaluated only when asked for, outside the timed interval.
  */
final class Outcome(val pi: Array[Double], val touches: Long, val pushOps: Long,
                    val walkSteps: Long, val supersteps: Long,
                    properties: => Option[String]) {
  def violation: Option[String] = properties
}

/** One method of a workload's mix. `layer` names its spans and its
  * per-layer metrics; `query(source, queryId)` runs one query.
  */
final case class Method(layer: String, role: Role, guarantee: Guarantee,
                        query: (Int, Int) => Outcome)

/** The per-graph state a workload's set-up builds; `live` is what must
  * stay reachable while it is queried.
  */
final case class Prepared(graph: WeightedGraph, methods: Seq[Method], live: Seq[AnyRef])

/** What one workload adds to the shared phases of [[Runner]]. */
trait Workload {
  def setupRepeats: Int
  def poolSize: Int
  /** Sources whose queries warm every method before timing starts. */
  def warmupSources: Int
  /** Queries checked against the reference: those from this many of the
    * warm-up sources (a divisor of `warmupSources`), or every query when
    * `checkEveryQuery`.
    */
  def referenceSources: Int
  def checkEveryQuery: Boolean

  /** Builds the graph and every method from the generated edge list,
    * timing each step with `rec`.
    */
  def setup(rec: Recorder): Prepared
  def release(p: Prepared): Unit = ()
  /** Methods run after the timed phase, in traced runs only. */
  def probes(p: Prepared): Seq[Method] = Nil
  /** Called once the timed phase is over, before metrics are taken. */
  def finish(rec: Recorder): Unit = ()
}

final case class Metric(name: String, unit: String, value: Double)

final case class RunResult(correct: Boolean, attempted: Long, failed: Long,
                           metrics: Seq[Metric])

/** The phases every workload shares: repeated set-up, warm-up with the
  * reference checks, a timed single-client closed loop, and the metrics.
  *
  * The timed loop makes whole passes over the source pool, one query of
  * each method of the mix per source, until `--seconds` have passed. So
  * every run times each source equally often, and the first pass is the
  * same queries in every run of a seed.
  */
object Runner {
  val Alpha = 0.2

  def run(w: Workload, o: Options, rec: Recorder): RunResult = {
    // Each set-up but the last is released before the next one starts, so
    // every repeat builds from nothing.
    val prepared = (1 to w.setupRepeats).map { i =>
      val p = rec.time("setup", "setup")(w.setup(rec))._1
      if (i < w.setupRepeats) w.release(p)
      p
    }.last
    val g = prepared.graph
    val pool = Sources.pool(g, w.poolSize, o.seed)
    val minDeg = g.deg.filter(_ > 0).min
    val reference = new Reference(g, Alpha, prepared.methods.map(_.guarantee match {
      case Guarantee.NormalizedAdditive(rmax) => rmax * minDeg
      case Guarantee.L1(eps) => eps
      case Guarantee.Relative(epsR, delta) => epsR * delta
    }).min)
    val truths = scala.collection.mutable.Map.empty[Int, Array[Double]]

    def runQuery(m: Method, s: Int, phase: String, checkTruth: Boolean): Unit = {
      val q = rec.nextQuery()
      val what = s"${m.layer} query $q from source $s ($phase)"
      val ok = try {
        val (out, span) = rec.time(m.layer, phase, q)(m.query(s, q))
        span.touches = out.touches
        span.pushOps = out.pushOps
        span.walkSteps = out.walkSteps
        span.supersteps = out.supersteps
        rec.check(what)(out.violation) &&
          (!checkTruth || rec.check(what)(
            reference.violation(out.pi, truths.getOrElseUpdate(s, reference.ppr(s)),
              m.guarantee)))
      } catch {
        case e: Exception => rec.check(what)(Some(s"query threw $e"))
      }
      rec.operation(ok)
    }

    // warm-up sources spread over the pool's degree strata
    (0 until w.warmupSources).foreach { i =>
      val s = pool(i * pool.length / w.warmupSources)
      val checkTruth = w.checkEveryQuery || i % (w.warmupSources / w.referenceSources) == 0
      prepared.methods.foreach(m => runQuery(m, s, "warmup", checkTruth))
    }

    val before = Jvm.counters()
    val t0 = System.nanoTime()
    var passes = 0
    while (passes == 0 || System.nanoTime() - t0 < o.seconds * 1000000000L) {
      for (s <- pool; m <- prepared.methods) runQuery(m, s, "timed", w.checkEveryQuery)
      passes += 1
    }
    val timedSeconds = (System.nanoTime() - t0) / 1e9
    val after = Jvm.counters()
    truths.clear() // the benchmark's own vectors are not the program's heap
    val retainedMb = Jvm.retainedHeapMb(prepared, pool)
    if (rec.traced)
      for (m <- w.probes(prepared); s <- pool) runQuery(m, s, "probe", false)
    w.finish(rec)

    val metrics = if (rec.traced) {
      Metrics.perLayer(rec, pool.length, after.gcCount - before.gcCount,
        after.gcMillis - before.gcMillis, after.allocBytes - before.allocBytes)
    } else endToEnd(rec, prepared.methods, retainedMb)
    Console.err.println(f"[perfbench] ${o.workload}: $passes passes over ${pool.length} " +
      f"sources, $timedSeconds%.1f s timed")
    RunResult(rec.failed == 0, rec.attempted, rec.failed, metrics)
  }

  private def endToEnd(rec: Recorder, methods: Seq[Method], retainedMb: Double): Seq[Metric] = {
    val timed = rec.spans.filter(s => s.phase == "timed" && methods.exists(_.layer == s.name))
    def p50(role: Role): Double = {
      val layer = methods.find(_.role == role).get.layer
      Stats.median(timed.filter(_.name == layer).map(_.ms).toSeq)
    }
    Seq(
      Metric("setup_s", "s",
        Stats.median(rec.spans.filter(_.name == "setup").map(_.nanos / 1e9).toSeq)),
      Metric("edge_query.p50_ms", "ms", p50(Role.Edge)),
      Metric("node_query.p50_ms", "ms", p50(Role.Node)),
      Metric("queries_per_s", "1/s", timed.length / (timed.map(_.nanos).sum / 1e9)),
      Metric("retained_heap_mb", "MB", retainedMb),
    )
  }
}
