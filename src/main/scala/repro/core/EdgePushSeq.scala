package repro.core

import repro.graph.WeightedGraph

/** EdgePush (Algorithm 2) with the §4.3 two-level candidate structure.
  *
  * State per the paper: node income q and edge expense Q; the residue
  * R_e = (1−α)·q(u)·A_e/d(u) − Q_e is implicit. A push sends the whole
  * residue, so afterwards Q_e = t·A_e, with t the level T = (1−α)q(u)/d(u)
  * of u at that push. So an edge's state is the level t_e of its last push
  * (0 before any), and e is a candidate (R_e ≥ θ_e) iff t_e + c_e ≤ T, with
  * c_e = θ_e/A_e. Levels only rise.
  *
  *  - local level: a node's edges ordered by c_e (ties in heap preorder of
  *    their 1-based CSR offsets) form a few runs of equal t, 2.8 per drain
  *    on seq-deep, kept as (end, t) pairs; a run's candidates are a prefix.
  *    A first drain sorts only what it pushes, a later one the rest.
  *  - global level: a FIFO list L of the nodes with a candidate, and each
  *    node's cached top key, the least t + c over its runs' first edges.
  *
  * A drain of u at level T pushes, from each run of level t < T, the prefix
  * with t + c_e ≤ T: y = (T − t)·A_e, then q(v) += y; the prefixes become
  * runs of level T. No sift, no per-push write of edge state: Thorup's O(1)
  * push (Fact 3) becomes O(1) plus a share of the run walk, which changes
  * constants, not the pushes Lemma 3 bounds. Neighbours made eligible join
  * L by their edges' keys before the drain.
  *
  * Per query: a zeroed O(n) allocation and the returned 2m-long Q, written
  * once from the runs after the queue phase; an O(n(u)) scan for min_e c_e
  * when u first receives income, which also rejects θ_e ≤ 0 or NaN; at most
  * two partitions and sorts of u's row; O(k + r + j log j) per drain that
  * pushes k edges over r runs and queues j neighbours.
  *
  * An optional scan mode mirrors §6.2's PowForPush switch: past
  * `scanSwitchFrac·2m` pushes, sequential passes push every edge with
  * R_e ≥ θ_e, skipping in O(1) nodes whose bound max_e A_e/θ_e rules it
  * out. Scanned nodes and edges are billed to `edgeTouches`.
  */
object EdgePushSeq {

  /** Initial number of slots in a query's edge and run arenas. */
  private[core] final val InitialArena = 64

  /** Slots before the runs of a node's region in the run arena. */
  private[core] final val Header = 3

  /** Whether 1-based heap index i comes before j in preorder (node, left, right). */
  private def preorderBefore(i: Int, j: Int): Boolean = {
    val di = 31 - Integer.numberOfLeadingZeros(i)
    val dj = 31 - Integer.numberOfLeadingZeros(j)
    // Lift the deeper index to the other's depth; an ancestor comes first.
    if (di <= dj) i <= (j >> (dj - di)) else (i >> (di - dj)) < j
  }

  /** Whether row position i sorts before j: by key, ties in heap preorder of i + 1, j + 1. */
  private def precedes(key: Array[Double], i: Int, j: Int): Boolean =
    key(i) < key(j) || (key(i) == key(j) && preorderBefore(i + 1, j + 1))

  /** Sort the row positions pos(from until until) by `precedes`: insertion sort, merge sort above 16. */
  private[core] def sortRow(key: Array[Double], pos: Array[Int], tmp: Array[Int],
                            from: Int, until: Int): Unit =
    if (until - from <= 16) {
      var i = from + 1
      while (i < until) {
        val p = pos(i)
        var j = i
        while (j > from && precedes(key, p, pos(j - 1))) { pos(j) = pos(j - 1); j -= 1 }
        pos(j) = p
        i += 1
      }
    } else {
      val mid = (from + until) >>> 1
      sortRow(key, pos, tmp, from, mid)
      sortRow(key, pos, tmp, mid, until)
      if (precedes(key, pos(mid), pos(mid - 1))) {
        // The left half moves to tmp; the output never overtakes the right
        // half's reader, and once the left half is used up the rest is in place.
        System.arraycopy(pos, from, tmp, from, mid - from)
        var i = from; var j = mid; var k = from
        while (i < mid) {
          if (j < until && precedes(key, pos(j), tmp(i))) { pos(k) = pos(j); j += 1 }
          else { pos(k) = tmp(i); i += 1 }
          k += 1
        }
      }
    }

  /** The key of an edge last pushed at level t: t + c, or the next double
    * above t where that sum rounds to t. So a key ≤ T always means t < T,
    * and the push it allows moves (T − t)·A_e > 0.
    */
  private def key(t: Double, c: Double): Double = {
    val k = t + c
    if (k > t) k else Math.nextUp(t)
  }

  private def badTheta(g: WeightedGraph, u: Int, e: Int, th: Double): Nothing =
    throw new IllegalArgumentException(s"theta($e) = $th on edge ($u,${g.nbr(e)}) is not positive")

  /** Run EdgePush with per-directed-edge thresholds `theta` (use
    * [[Thresholds.l1]] or [[Thresholds.rmax]]).
    *
    * @param scanSwitchFrac switch to sequential scans once edge pushes
    *                       exceed this multiple of 2m; `None` disables
    *                       switching (pure two-level structure, as in
    *                       Algorithm 2)
    */
  def compute(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
              scanSwitchFrac: Option[Double] = None): PprResult =
    run(g, s, alpha, theta, scanSwitchFrac)._1

  /** Full run exposing the terminal state (result, q, edge expense Q). */
  def run(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
          scanSwitchFrac: Option[Double] = None): (PprResult, Array[Double], Array[Double]) =
    runProbed(g, s, alpha, theta, scanSwitchFrac, NoProbe)

  /** Sees each queue-phase drain as it ends: x drained at `level`; before(i), after(i) are
    * the levels t of x's edge at row position i then; queued(0 until j) are the row
    * positions of the edges whose targets the drain put on L, in the order they joined.
    */
  private[core] trait DrainProbe {
    def apply(x: Int, level: Double, before: Array[Double], after: Array[Double],
              queued: Array[Int], j: Int): Unit
  }

  private val NoProbe: DrainProbe = (_, _, _, _, _, _) => ()

  /** As `run`, calling `onDrain` as each drain ends. */
  private[core] def runProbed(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
                              scanSwitchFrac: Option[Double], onDrain: DrainProbe)
      : (PprResult, Array[Double], Array[Double]) = {
    require(theta.length == g.directedEdgeCount)
    val t0 = System.nanoTime()
    val n = g.n
    val q = new Array[Double](n)
    q(s) = 1.0
    var pushOps = 0L; var touches = 0L

    // --- local level, in two per-query arenas that start small and double ---
    // minKey(x) is x's top key, or 0 before x's row is first read. Once x
    // drains, its edges are sorted(off(x) until off(x) + n(x)), and its run
    // region starts at h = runAt(x) > 0: runEnd(h until h + 3) = (run count,
    // capacity, start of the unsorted tail or n(x)), runLevel(h) = the tail's
    // least c. Run i ends before off(x) + runEnd(h + Header + i), at level
    // runLevel(h + Header + i).
    val minKey = new Array[Double](n)
    val off = new Array[Int](n)
    val runAt = new Array[Int](n)
    var sorted = new Array[Int](math.min(InitialArena, g.directedEdgeCount)); var sortedUsed = 0
    var runEnd = new Array[Int](InitialArena); var runLevel = new Array[Double](InitialArena); var runUsed = 1
    // Per-drain scratch, grown to the largest n(x) drained: row positions
    // (to sort, then of the edges whose targets join L), keys by row
    // position, and the runs the drain leaves.
    var pos = new Array[Int](InitialArena); var tmp = new Array[Int](InitialArena)
    var rowKey = new Array[Double](InitialArena)
    var nextEnd = new Array[Int](InitialArena); var nextLevel = new Array[Double](InitialArena)

    /** A new run region of capacity `cap` for x, with the header of its old one, if any. */
    def newRuns(x: Int, cap: Int): Int = {
      if (runUsed + Header + cap > runEnd.length) {
        val len = math.max(2 * runEnd.length, runUsed + Header + cap)
        runEnd = java.util.Arrays.copyOf(runEnd, len); runLevel = java.util.Arrays.copyOf(runLevel, len)
      }
      val h = runUsed
      if (runAt(x) != 0) { System.arraycopy(runEnd, runAt(x), runEnd, h, Header); runLevel(h) = runLevel(runAt(x)) }
      runEnd(h + 1) = cap
      runUsed += Header + cap
      runAt(x) = h
      h
    }

    /** Move the edges of x's unsorted tail with c_e ≤ bound to its front,
      * sorted; the rest stay unsorted behind them as the new tail. A node's
      * first call gives it arena space, its whole row as the tail, and one
      * run of level 0 (fresh arena slots are 0).
      */
    def sortTail(x: Int, bound: Double): Unit = {
      val e0 = g.indptr(x)
      val len = g.nbrCount(x)
      val fresh = runAt(x) == 0
      if (fresh) {
        if (sortedUsed + len > sorted.length) {
          val cap = math.min(math.max(2L * sorted.length, sortedUsed + len), g.directedEdgeCount).toInt
          sorted = java.util.Arrays.copyOf(sorted, cap)
        }
        val h = newRuns(x, math.min(len, 4))
        runEnd(h) = 1; runEnd(h + Header) = len
        off(x) = sortedUsed; sortedUsed += len
      }
      val h = runAt(x); val o = off(x); val from = runEnd(h + 2)
      var k = from; var r = len; var m = Double.PositiveInfinity; var i = from
      while (i < len) {
        val e = if (fresh) e0 + i else sorted(o + i)
        val p = e - e0
        val c = theta(e) / g.wgt(e)
        rowKey(p) = c
        if (c <= bound) { pos(k) = p; k += 1 }
        else { r -= 1; pos(r) = p; if (c < m) m = c }
        i += 1
      }
      sortRow(rowKey, pos, tmp, from, k)
      i = from; while (i < len) { sorted(o + i) = e0 + pos(i); i += 1 }
      runEnd(h + 2) = k; runLevel(h) = m
    }

    /** out(at + i) = t of drained x's edge at row position i, or t·A_e if `weighted`. */
    def spread(x: Int, out: Array[Double], at: Int, weighted: Boolean): Unit = {
      val h = runAt(x); val o = off(x)
      var p = 0; var i = 0
      while (i < runEnd(h)) {
        val t = runLevel(h + Header + i)
        while (p < runEnd(h + Header + i)) {
          val e = sorted(o + p)
          out(at + e - g.indptr(x)) = if (weighted) t * g.wgt(e) else t
          p += 1
        }
        i += 1
      }
    }

    /** The levels of x's edges by row position, for the probe. */
    def levels(x: Int): Array[Double] =
      { val out = new Array[Double](g.nbrCount(x)); if (runAt(x) != 0) spread(x, out, 0, weighted = false); out }

    /** Top key of a node x with edges. */
    def topKey(x: Int): Double = {
      if (minKey(x) == 0.0) {
        var m = Double.PositiveInfinity
        var e = g.indptr(x)
        while (e < g.indptr(x + 1)) {
          val th = theta(e)
          if (!(th > 0)) badTheta(g, x, e, th)
          val c = th / g.wgt(e)
          if (c < m) m = c
          e += 1
        }
        minKey(x) = key(0.0, m)
      }
      minKey(x)
    }

    // x has a candidate edge  ⇔  its level reaches its top key
    def eligible(x: Int): Boolean =
      g.indptr(x) < g.indptr(x + 1) && g.deg(x) > 0 &&
        (1 - alpha) * q(x) / g.deg(x) >= topKey(x)

    // --- global level: FIFO queue L of the eligible nodes; a node is in L
    // at most once (inL) ---
    val inL = new Array[Boolean](n)
    val list = new IntFifo
    if (eligible(s)) { inL(s) = true; list.reserve(1); list.add(s) }

    val switchAt = scanSwitchFrac.fold(Double.PositiveInfinity)(_ * g.directedEdgeCount)
    var switched = false

    while (!list.isEmpty && !switched) {
      val x = list.poll()
      inL(x) = false
      if (eligible(x)) {
        val e0 = g.indptr(x)
        val len = g.nbrCount(x)
        if (len > pos.length) {
          val cap = math.max(len, 2 * pos.length)
          pos = new Array[Int](cap); tmp = new Array[Int](cap); rowKey = new Array[Double](cap)
          nextEnd = new Array[Int](cap); nextLevel = new Array[Double](cap)
        }
        val level = (1 - alpha) * q(x) / g.deg(x)
        // A first drain of a row past the insertion-sort cutoff sorts only the edges
        // it pushes (c_e ≤ T); the first later drain to reach the rest sorts them.
        if (runAt(x) == 0) sortTail(x, if (len <= 16) Double.PositiveInfinity else level)
        else if (runEnd(runAt(x) + 2) < len && runLevel(runAt(x)) <= level) sortTail(x, Double.PositiveInfinity)
        list.reserve(len) // a drain enqueues each neighbour at most once
        val before = if (onDrain eq NoProbe) null else levels(x)
        // Only newRuns moves the run arena, and it runs after the pushes.
        val edges = sorted; val ends = runEnd; val runLevels = runLevel
        var h = runAt(x)
        val o = off(x)
        // The unsorted tail, if any, is the last run, at level 0, keyed by its least c.
        val tail = ends(h + 2); val tailMin = runLevels(h)
        def c(p: Int): Double = if (p == tail) tailMin else theta(edges(o + p)) / g.wgt(edges(o + p))
        var m = 0 // runs left by the drain, in nextEnd/nextLevel
        var top = Double.PositiveInfinity // the least key over their first edges
        var j = 0 // neighbours made eligible, by row position in pos
        var start = 0; var i = 0
        while (i < ends(h)) {
          val end = ends(h + Header + i)
          val t = runLevels(h + Header + i)
          var p = start
          if (t < level) {
            val dt = level - t
            while (p < end && t + c(p) <= level) {
              val e = edges(o + p)
              val v = g.nbr(e)
              q(v) += dt * g.wgt(e)
              if (!inL(v) && eligible(v)) {
                inL(v) = true
                pos(j) = e - e0
                rowKey(e - e0) = key(t, c(p))
                j += 1
              }
              p += 1
            }
          }
          pushOps += p - start; touches += p - start
          // The pushed prefix at `level`, then the rest at t; adjacent runs
          // of equal level merge, keeping the first one's first edge.
          if (p > start) {
            if (m > 0 && nextLevel(m - 1) == level) nextEnd(m - 1) = p
            else { nextEnd(m) = p; nextLevel(m) = level; m += 1; top = math.min(top, key(level, c(start))) }
          }
          if (end > p) {
            if (m > 0 && nextLevel(m - 1) == t) nextEnd(m - 1) = end
            else { nextEnd(m) = end; nextLevel(m) = t; m += 1; top = math.min(top, key(t, c(p))) }
          }
          start = end
          i += 1
        }
        minKey(x) = top
        if (m > ends(h + 1)) h = newRuns(x, math.min(len, 2 * m))
        runEnd(h) = m
        System.arraycopy(nextEnd, 0, runEnd, h + Header, m)
        System.arraycopy(nextLevel, 0, runLevel, h + Header, m)
        // The neighbours join L by their edges' keys before the drain.
        sortRow(rowKey, pos, tmp, 0, j)
        if (before != null) onDrain(x, level, before, levels(x), pos, j)
        i = 0; while (i < j) { list.add(g.nbr(e0 + pos(i))); i += 1 }
      }
      if (pushOps > switchAt) switched = true
    }

    // Q_e = t_e·A_e from the runs, for the caller and for the scan phase.
    val expense = new Array[Double](g.directedEdgeCount)
    var x0 = 0
    while (x0 < n) { if (runAt(x0) != 0) spread(x0, expense, g.indptr(x0), weighted = true); x0 += 1 }

    if (switched) {
      val (ops, scanned) = scan(g, alpha, theta, q, expense)
      pushOps += ops; touches += scanned
    }

    val pi = new Array[Double](n)
    var i = 0
    while (i < n) { pi(i) = alpha * q(i); i += 1 }
    (PprResult(pi, pushOps, touches, walkSteps = 0, wallNanos = System.nanoTime() - t0),
      q, expense)
  }

  /** §6.2-style scan passes over q and Q until one pushes nothing; returns the pushes and touches. */
  private def scan(g: WeightedGraph, alpha: Double, theta: Array[Double], q: Array[Double],
                   expense: Array[Double]): (Long, Long) = {
    val n = g.n
    var pushOps = 0L; var touches = 0L
    // u can have an eligible edge only if (1−α)·q(u)/d(u)·max_e(A_e/θ_e) ≥ 1
    // (Q_e ≥ 0 ignored).
    val maxWT = Array.tabulate(n) { x0 =>
      var r = 0.0; var p = g.indptr(x0)
      while (p < g.indptr(x0 + 1)) {
        if (!(theta(p) > 0)) badTheta(g, x0, p, theta(p))
        r = math.max(r, g.wgt(p) / theta(p)); p += 1
      }
      r
    }
    // Exact skip: R_e changes only when q(u) grows (Q_e only during u's
    // own scan), so a node scanned clean waits for new income.
    val lastScanQ = Array.fill(n)(-1.0)
    var anyPush = true
    while (anyPush) {
      anyPush = false
      var x = 0
      while (x < n) {
        touches += 1 // the O(1) per-node prune check
        if (g.deg(x) > 0 && q(x) > 0 && q(x) != lastScanQ(x) &&
            (1 - alpha) * q(x) / g.deg(x) * maxWT(x) >= 1.0) {
          val scale = (1 - alpha) * q(x) / g.deg(x)
          lastScanQ(x) = q(x)
          var p = g.indptr(x)
          while (p < g.indptr(x + 1)) {
            touches += 1
            val y = scale * g.wgt(p) - expense(p)
            if (y >= theta(p)) {
              expense(p) += y
              q(g.nbr(p)) += y
              pushOps += 1
              anyPush = true
            }
            p += 1
          }
        }
        x += 1
      }
    }
    (pushOps, touches)
  }
}
