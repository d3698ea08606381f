package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into the program: a set-up step, a query, a part of a
  * query, or a Spark job. Spans of one query share `query`; `parent` is
  * the id of the enclosing span (0 for none). `allocBytes` is the calling
  * thread's allocation during the call and `overheadNs` the bookkeeping
  * the trace added around it; both are measured in traced runs only.
  */
final class Span(val id: Int, val parent: Int, val query: Int, val name: String,
                 val phase: String, val startNs: Long, val endNs: Long,
                 val allocBytes: Long, val overheadNs: Long) {
  var touches = 0L
  var pushOps = 0L
  var walkSteps = 0L
  var supersteps = 0L
  var sparkJobs = 0L
  var sparkTasks = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L

  def nanos: Long = endNs - startNs
  def ms: Double = nanos / 1e6

  def toJson: String =
    s"""{"id":$id,"parent":$parent,"query":$query,"name":"$name","phase":"$phase",""" +
      s""""start_ns":$startNs,"end_ns":$endNs,"alloc_bytes":$allocBytes,""" +
      s""""overhead_ns":$overheadNs,"touches":$touches,"push_ops":$pushOps,""" +
      s""""walk_steps":$walkSteps,"supersteps":$supersteps,"spark_jobs":$sparkJobs,""" +
      s""""spark_tasks":$sparkTasks,"shuffle_records":$shuffleRecords,""" +
      s""""shuffle_bytes":$shuffleBytes}"""
}

/** Keeps the spans and the operation tally of one run.
  *
  * Every call into the program goes through [[time]], in both kinds of
  * run, so the untraced run pays one `nanoTime` pair and one appended
  * object per call. Only traced runs read the allocation counters.
  */
final class Recorder(val traced: Boolean) {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  val spans = ArrayBuffer.empty[Span]
  private var lastQuery = 0
  private var checkNs = 0L
  var attempted = 0L
  var failed = 0L
  private val failures = ArrayBuffer.empty[String]

  def nextQuery(): Int = { lastQuery += 1; lastQuery }

  private var lastSpan = 0
  private var open = List.empty[Span] // the spans enclosing the current call

  /** Runs `f` as one span nested in the innermost open one, whose phase
    * it takes unless `phase` is given.
    */
  def time[A](name: String, phase: String = null, query: Int = 0)(f: => A): (A, Span) = {
    val o0 = System.nanoTime()
    lastSpan += 1
    val id = lastSpan
    val (parent, ph) = open.headOption match {
      case Some(p) => (p.id, Option(phase).getOrElse(p.phase))
      case None => (0, phase)
    }
    open = new Span(id, parent, query, name, ph, 0L, 0L, 0L, 0L) :: open
    val a0 = if (traced) threads.getCurrentThreadAllocatedBytes else 0L
    val t0 = System.nanoTime()
    val a = try f finally open = open.tail
    val t1 = System.nanoTime()
    val alloc = if (traced) threads.getCurrentThreadAllocatedBytes - a0 else -1L
    val span = new Span(id, parent, query, name, ph, t0, t1, alloc,
      overheadNs = System.nanoTime() - o0 - (t1 - t0))
    spans += span
    (a, span)
  }

  /** Adds a span measured elsewhere (a Spark job seen by the listener). */
  def add(parent: Int, query: Int, name: String, phase: String,
          startNs: Long, endNs: Long): Span = {
    lastSpan += 1
    val span = new Span(lastSpan, parent, query, name, phase, startNs, endNs, -1L, 0L)
    spans += span
    span
  }

  /** Evaluates one check outside every timed interval and returns whether
    * it passed. A failed check is reported on stderr.
    */
  def check(what: String)(violation: => Option[String]): Boolean = {
    val t0 = System.nanoTime()
    val v = try violation catch { case e: Exception => Some(s"check threw $e") }
    checkNs += System.nanoTime() - t0
    v.foreach { msg =>
      failures += s"$what: $msg"
      if (failures.length <= 20) Console.err.println(s"[perfbench] FAILED $what: $msg")
    }
    v.isEmpty
  }

  /** Counts one operation; it fails when `ok` is false. */
  def operation(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  def checkSeconds: Double = checkNs / 1e9

  def writeTrace(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, spans.map(_.toJson).asJava)
  }
}

/** JVM-wide counters read around the timed phase. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  final case class Counters(gcCount: Long, gcMillis: Long, allocBytes: Long)

  /** Collections and collector time so far, and the bytes allocated by
    * the threads alive now (threads that ended are not counted).
    */
  def counters(): Counters = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val ids = threads.getAllThreadIds
    Counters(gcs.map(_.getCollectionCount max 0L).sum,
      gcs.map(_.getCollectionTime max 0L).sum,
      threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum)
  }

  /** Heap in use after a full collection, in MB, while `live` stays
    * reachable.
    */
  def retainedHeapMb(live: AnyRef*): Double = {
    System.gc()
    System.gc()
    val used = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    live.foreach(java.lang.ref.Reference.reachabilityFence)
    used / (1024.0 * 1024.0)
  }
}

/** Order statistics and ratios for the reported metrics. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** Nearest-rank percentile `p` in (0, 100). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1))
  }

  /** `num / den`, or 0 when nothing was counted. */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  def mean(xs: Seq[Double]): Double = ratio(xs.sum, xs.length)
}
