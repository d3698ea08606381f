package repro.core

import repro.graph.WeightedGraph

/** EdgePush (Algorithm 2) with the §4.3 two-level candidate structure.
  *
  * State per the paper: node income q, edge expense Q; the edge residue
  * R_uv = (1−α)·q(u)·A_uv/d(u) − Q_uv is kept implicit. The candidate set
  * C = { ⟨u,v⟩ | R_uv ≥ θ(u,v) } is maintained via
  *
  *  - local level: a per-node min-heap Q(u) over u's out-edges keyed by
  *    k_u(v) = (Q_uv + θ(u,v)) / A_uv (keys only ever increase);
  *  - global level: a list L of nodes whose key
  *    K_u = −(1−α)q(u)/d(u) + Q(u).top is ≤ 0 (Observation 1: K_u ≤ 0 iff
  *    u's best edge is in C).
  *
  * The paper gets O(1) amortized per edge push with Thorup's word-RAM
  * priority queue (Fact 3); we use array-embedded binary heaps, which
  * changes constants only, never the *number* of edge pushes that Lemma 3
  * bounds. A node u drains in one pass: its level T = (1−α)q(u)/d(u) is
  * fixed while it drains (no self-loops), and a push lifts its edge's key
  * above T, so a drain pushes exactly {e ∈ E(u) : k_e ≤ T}, each once. That
  * set is top-closed in the heap; it is collected level by level from the
  * root and pushed, and the heap is restored by sift-downs over the
  * collected positions, deepest first. The neighbours a drain makes
  * eligible join L in the order one find-min per push would have pushed
  * their edges (by key, equal keys in heap preorder), so the schedule
  * stays close to that of a per-push drain.
  *
  * Heaps are built lazily, in a per-query arena, so a query's cost follows
  * the nodes it reaches rather than 2m. Per query it is a zeroed O(n)
  * allocation for per-node state, plus the returned 2m-long expense array
  * Q (no per-edge loop), plus one O(n(u)) scan for min_e θ_e/A_e when node
  * u first receives income, plus O(n(u)) arena space, fill and heapify when
  * u is first drained, i.e. O(Σ n(u)) over drained nodes with the arena's
  * doubling copies, plus, per drain that pushes k edges and makes j
  * neighbours eligible, O(k) to collect them, one bottom-up restore over
  * those k positions and O(j log j) to order the j neighbours. A node's keys
  * change only while it drains, so a heap built late equals one built at
  * the start: push order, counts and π̂ are the same.
  *
  * An optional scan mode mirrors the §6.2 PowForPush-style switch: once
  * the number of edge pushes exceeds `scanSwitchFrac·2m` (i.e. we have
  * already done more pushes than one full scan would cost), the two-level
  * structure is abandoned for sequential passes, pushing every edge whose
  * residue exceeds its threshold. A per-node pruning bound
  * max_e A_e/θ_e lets a pass skip nodes with no eligible edge in O(1),
  * so a scan pass costs n + Σ n(u) over flagged nodes, like PowForPush's.
  * Scanned nodes/edges are billed to `edgeTouches` so the cost comparison
  * stays honest.
  */
object EdgePushSeq {

  // Per-query state of a node's heap (see `run`).
  private final val Unbuilt = 0
  private final val MinKnown = 1
  private final val Built = 2

  /** Initial number of (key, edge) slots in a query's heap arena. */
  private[core] final val InitialArena = 64

  /** Restore the heap property downward from position `p0` of the segment
    * [lo, hi) of the arena (keys, edges), where the children of position
    * lo + i are lo + 2i + 1 and lo + 2i + 2.
    */
  private[core] def siftDown(keys: Array[Double], edges: Array[Int], lo: Int, hi: Int, p0: Int): Unit = {
    // Hole-based: the entry at p0 is held aside while smaller children move
    // up into the hole. A child moves only if strictly smaller, and the
    // right child is chosen only if strictly smaller than the left, which
    // gives the same result as swapping.
    val k = keys(p0)
    val e = edges(p0)
    var p = p0
    var child = lo + 2 * (p - lo) + 1
    while (child < hi) {
      if (child + 1 < hi && keys(child + 1) < keys(child)) child += 1
      if (keys(child) < k) {
        keys(p) = keys(child); edges(p) = edges(child)
        p = child
        child = lo + 2 * (p - lo) + 1
      } else child = hi
    }
    keys(p) = k; edges(p) = e
  }

  // A drain queues the neighbours it makes eligible in a binary min-heap
  // front(0 until size) of 1-based indices j into the node's heap segment
  // (the edge at position lo + j − 1), ordered by the edges' keys before the
  // drain, key(j), equal keys in heap preorder: the order in which popping
  // the root, raising its key and sifting it down (left on ties) takes them.
  private def before(key: Array[Double], i: Int, j: Int): Boolean =
    key(i) < key(j) || (key(i) == key(j) && preorderBefore(i, j))

  /** Whether 1-based heap index i comes before j in preorder: a node before
    * its subtrees, a left subtree before the right one.
    */
  private def preorderBefore(i: Int, j: Int): Boolean = {
    val di = 31 - Integer.numberOfLeadingZeros(i)
    val dj = 31 - Integer.numberOfLeadingZeros(j)
    // Lift the deeper index to the other's depth; an ancestor comes first.
    if (di <= dj) i <= (j >> (dj - di)) else (i >> (di - dj)) < j
  }

  /** Put j at the root of the heap front(0 until size) and sift it down. */
  private[core] def frontDown(key: Array[Double], front: Array[Int], size: Int, j: Int): Unit = {
    var i = 0
    var child = 1
    while (child < size) {
      if (child + 1 < size && before(key, front(child + 1), front(child))) child += 1
      if (before(key, front(child), j)) {
        front(i) = front(child)
        i = child
        child = 2 * i + 1
      } else child = size
    }
    front(i) = j
  }

  /** Add j to the heap front(0 until size) at slot size and sift it up. */
  private[core] def frontUp(key: Array[Double], front: Array[Int], size: Int, j: Int): Unit = {
    var i = size
    while (i > 0 && before(key, j, front((i - 1) / 2))) {
      front(i) = front((i - 1) / 2)
      i = (i - 1) / 2
    }
    front(i) = j
  }

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

  /** Sees the live state (q, Q) as each drain of a node x begins, before its
    * pushes. A trait rather than a function type, whose `Int` argument would
    * be boxed on every drain.
    */
  private[core] trait DrainProbe {
    def apply(x: Int, q: Array[Double], expense: Array[Double]): Unit
  }

  private val NoProbe: DrainProbe = (_, _, _) => ()

  /** As `run`, calling `onDrain` as each drain begins. */
  private[core] def runProbed(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
                              scanSwitchFrac: Option[Double], onDrain: DrainProbe)
      : (PprResult, Array[Double], Array[Double]) = {
    require(theta.length == g.directedEdgeCount)
    val t0 = System.nanoTime()
    val n = g.n
    val q = new Array[Double](n)
    val expense = new Array[Double](g.directedEdgeCount) // Q_uv
    q(s) = 1.0

    var pushOps = 0L
    var touches = 0L

    // --- local level: per-node binary heaps in a per-query arena ---
    // When node u is first drained (state Built), its segment of
    // (hKey, hEdge) pairs is appended to the arena at off(u), in u's CSR
    // order, and heapified: hKey(p) = (Q_e + θ_e)/w_e of the edge
    // e = hEdge(p). Before that, none of u's edges has pushed, so its top
    // key is min_e θ_e/w_e, found by one scan on first income (MinKnown).
    // minKey caches the top key of every node past Unbuilt. The arena
    // starts small and doubles, capped at 2m.
    var hKey = new Array[Double](math.min(InitialArena, g.directedEdgeCount))
    var hEdge = new Array[Int](hKey.length)
    var used = 0
    val off = new Array[Int](n)
    val state = new Array[Byte](n) // Unbuilt, MinKnown or Built
    val minKey = new Array[Double](n)

    /** Append u's segment with its initial keys θ/w and heapify it (Floyd). */
    def build(u: Int): Unit = {
      val e0 = g.indptr(u)
      val len = g.indptr(u + 1) - e0
      if (used + len > hKey.length) {
        val cap = math.min(math.max(2L * hKey.length, used + len), g.directedEdgeCount).toInt
        hKey = java.util.Arrays.copyOf(hKey, cap)
        hEdge = java.util.Arrays.copyOf(hEdge, cap)
      }
      val lo = used
      var i = 0
      while (i < len) { hKey(lo + i) = theta(e0 + i) / g.wgt(e0 + i); hEdge(lo + i) = e0 + i; i += 1 }
      var p = lo + len / 2 - 1
      while (p >= lo) { siftDown(hKey, hEdge, lo, lo + len, p); p -= 1 }
      used += len
      off(u) = lo
      minKey(u) = hKey(lo)
      state(u) = Built
    }

    /** Key at the top of Q(x), for a node x with edges. */
    def topKey(x: Int): Double = {
      if (state(x) == Unbuilt) {
        var m = Double.PositiveInfinity
        var e = g.indptr(x)
        while (e < g.indptr(x + 1)) {
          val k = theta(e) / g.wgt(e)
          if (k < m) m = k
          e += 1
        }
        minKey(x) = m
        state(x) = MinKnown
      }
      minKey(x)
    }

    // K_u ≤ 0  ⇔  (1−α)q(u)/d(u) ≥ key(top of Q(u))
    def eligible(x: Int): Boolean =
      g.indptr(x) < g.indptr(x + 1) && g.deg(x) > 0 &&
        (1 - alpha) * q(x) / g.deg(x) >= topKey(x)

    // --- global level: FIFO queue L of nodes with K_u ≤ 0; a node is in L
    // at most once (inL) ---
    val inL = new Array[Boolean](n)
    val list = new IntFifo
    // A drain's collected heap positions, and the heap of the neighbours it
    // makes eligible with their edges' keys before the drain (by 1-based
    // segment index); grown to the largest n(x) drained.
    var pos = new Array[Int](InitialArena)
    var front = new Array[Int](InitialArena)
    var queuedKey = new Array[Double](InitialArena + 1)
    if (eligible(s)) { inL(s) = true; list.reserve(1); list.add(s) }

    val switchAt = scanSwitchFrac.fold(Double.PositiveInfinity)(_ * g.directedEdgeCount)
    var switched = false

    while (!list.isEmpty && !switched) {
      val x = list.poll()
      inL(x) = false
      // Drain x: push each edge with key ≤ T once, in one pass (see above).
      var go = eligible(x)
      if (go) {
        if (state(x) != Built) build(x)
        // Only build moves the arena, so these stay valid for the drain.
        val keys = hKey
        val edges = hEdge
        val lo = off(x)
        val len = g.nbrCount(x)
        val hi = lo + len
        list.reserve(len) // a drain enqueues each neighbour at most once
        if (len > pos.length) {
          pos = new Array[Int](math.max(len, 2 * pos.length))
          front = new Array[Int](pos.length)
          queuedKey = new Array[Double](pos.length + 1)
        }
        onDrain(x, q, expense)
        val a = (1 - alpha) * q(x)
        val d = g.deg(x)
        val level = a / d
        // One pass normally suffices; the re-check guards against FP fuzz.
        while (go) {
          // Collect the positions with key ≤ T level by level from the root.
          // The set is top-closed, so expanding only taken positions finds
          // all of it; pos(0 until k) ascends.
          pos(0) = lo
          var k = 1
          var i = 0
          while (i < k) {
            val c = lo + 2 * (pos(i) - lo) + 1
            if (c < hi && keys(c) <= level) { pos(k) = c; k += 1 }
            if (c + 1 < hi && keys(c + 1) <= level) { pos(k) = c + 1; k += 1 }
            i += 1
          }
          // Push them. The neighbours made eligible join L afterwards, in the
          // order the per-push heap would have pushed their edges.
          var f = 0
          i = 0
          while (i < k) {
            val p = pos(i)
            val e = edges(p)
            val v = g.nbr(e)
            val y = a * g.wgt(e) / d - expense(e)
            // y ≥ θ_e since key_e ≤ T; guard against FP fuzz anyway.
            if (y > 0) {
              expense(e) += y
              q(v) += y
              pushOps += 1
              touches += 1
            }
            if (!inL(v) && eligible(v)) {
              inL(v) = true
              queuedKey(p - lo + 1) = keys(p)
              frontUp(queuedKey, front, f, p - lo + 1)
              f += 1
            }
            keys(p) = (expense(e) + theta(e)) / g.wgt(e)
            i += 1
          }
          while (f > 0) {
            list.add(g.nbr(edges(lo + front(0) - 1)))
            f -= 1
            if (f > 0) frontDown(queuedKey, front, f, front(f))
          }
          // Restore the heap bottom-up over the collected positions: Floyd's
          // heapify restricted to the subtree they form.
          i = k - 1
          while (i >= 0) { siftDown(keys, edges, lo, hi, pos(i)); i -= 1 }
          minKey(x) = keys(lo)
          go = level >= keys(lo)
        }
      }
      if (pushOps > switchAt) switched = true
    }

    if (switched) {
      // §6.2-style sequential scan phase: passes over Ē pushing every edge
      // with R_e ≥ θ_e, until a pass performs no push. A node u can have an
      // eligible edge only if (1−α)·q(u)/d(u) · max_e(A_e/θ_e) ≥ 1 (the
      // bound ignores Q_e ≥ 0, so it is conservative); nodes failing it
      // are skipped in O(1), keeping pass cost ≈ n + Σ_{flagged} n(u).
      val maxWT = new Array[Double](n)
      var x0 = 0
      while (x0 < n) {
        var p = g.indptr(x0)
        while (p < g.indptr(x0 + 1)) {
          val r = g.wgt(p) / theta(p)
          if (r > maxWT(x0)) maxWT(x0) = r
          p += 1
        }
        x0 += 1
      }
      // Exact skip: R_e = (1−α)q(u)A_e/d(u) − Q_e changes only when q(u)
      // grows (Q_e changes only during u's own scan), so a node scanned
      // clean needs rescanning only once its income changed.
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
    }

    val pi = new Array[Double](n)
    var i = 0
    while (i < n) { pi(i) = alpha * q(i); i += 1 }
    (PprResult(pi, pushOps, touches, walkSteps = 0, wallNanos = System.nanoTime() - t0),
      q, expense)
  }

  /** Variant returning (π̂, R) where R is the final edge-residue array
    * R_e = (1−α)·q(u)·A_e/d(u) − Q_e — used by invariant tests.
    */
  def computeWithResidues(g: WeightedGraph, s: Int, alpha: Double,
                          theta: Array[Double]): (Array[Double], Array[Double]) = {
    val (result, q, expense) = run(g, s, alpha, theta)
    val residues = new Array[Double](g.directedEdgeCount)
    var u = 0
    while (u < g.n) {
      if (g.deg(u) > 0) {
        val scale = (1 - alpha) * q(u) / g.deg(u)
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          residues(e) = scale * g.wgt(e) - expense(e)
          e += 1
        }
      }
      u += 1
    }
    (result.pi, residues)
  }
}
