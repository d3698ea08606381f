package repro.core

import repro.graph.WeightedGraph

/** Monte-Carlo sampling (§3): simulate W α-random walks from s; π̂(u) is
  * the fraction of walks that stop at u. On weighted graphs each step
  * moves to neighbor v with probability A_uv/d(u), sampled by binary search
  * over u's prefix sums, which are built per query and lazily: the first
  * time a walk leaves u (see [[MonteCarloSeq.Walker]]).
  *
  * The walk count follows the standard (δ, ε_r, p_f) Chernoff setting used
  * by FORA/SpeedPPR: W = (2ε_r/3 + 2)·ln(2/p_f) / (ε_r²·δ).
  */
object MonteCarloSeq {

  /** Walk count for relative error ε_r at threshold δ w.p. 1−p_f. */
  def walkCount(delta: Double, epsR: Double, pf: Double): Long =
    math.ceil((2 * epsR / 3 + 2) * math.log(2.0 / pf) / (epsR * epsR * delta)).toLong

  /** Initial number of prefix-sum slots in a query's arena. */
  private[core] final val InitialArena = 64

  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The α-walk kernel of MC, FORA and SpeedPPR, for one query.
    *
    * It draws the stream of `new java.util.Random(seed)` from a plain
    * `Long` copy of its 48-bit LCG (no `AtomicLong` per draw), and keeps
    * node u's prefix sums of A_uv, accumulated from 0.0 in CSR order, in an
    * arena that starts at [[InitialArena]] slots and doubles, capped at 2m.
    * They are appended the first time a walk leaves u. So a query costs an
    * O(n) offset array plus O(Σ n(u)) over the nodes its walks leave, plus
    * O(log n(u)) per step.
    */
  private[core] final class Walker(g: WeightedGraph, alpha: Double, seed: Long) {
    private var rnd = (seed ^ Multiplier) & Mask
    // off(u) − 1 is where u's sums start in cum; 0 means not built yet.
    private val off = new Array[Int](g.n)
    private var cum = new Array[Double](math.min(InitialArena, g.directedEdgeCount))
    private var used = 0

    /** Moves made by every walk so far. */
    var steps = 0L

    private[core] def arenaSlots: Int = cum.length

    /** The next value of `java.util.Random.nextDouble()`. */
    private[core] def nextDouble(): Double =
      ((next(26).toLong << 27) + next(27)) * DoubleUnit

    private def next(bits: Int): Int = {
      rnd = (rnd * Multiplier + Addend) & Mask
      (rnd >>> (48 - bits)).toInt
    }

    /** Append u's prefix sums to the arena; returns where they start. */
    private def build(u: Int): Int = {
      val e0 = g.indptr(u)
      val len = g.indptr(u + 1) - e0
      if (used + len > cum.length) {
        val cap = math.min(math.max(2L * cum.length, used + len), g.directedEdgeCount).toInt
        cum = java.util.Arrays.copyOf(cum, cap)
      }
      val lo = used
      var acc = 0.0
      var i = 0
      while (i < len) { acc += g.wgt(e0 + i); cum(lo + i) = acc; i += 1 }
      used += len
      off(u) = lo + 1
      lo
    }

    /** A neighbor of u, drawn proportional to edge weight: the first edge
      * whose prefix sum is ≥ x, for x uniform in [0, d(u)).
      */
    private[core] def sample(u: Int): Int = {
      val lo = if (off(u) == 0) build(u) else off(u) - 1
      val x = nextDouble() * g.deg(u)
      var a = lo
      var b = lo + g.nbrCount(u) - 1
      while (a < b) {
        val mid = (a + b) >>> 1
        if (cum(mid) < x) a = mid + 1 else b = mid
      }
      g.nbr(g.indptr(u) + (a - lo))
    }

    /** Run one α-walk from `from` and return the node where it stops. Each
      * step first draws whether to stop, then stops anyway at a node
      * without edges.
      */
    def walk(from: Int): Int = {
      var u = from
      while (!(nextDouble() < alpha || g.deg(u) <= 0)) { u = sample(u); steps += 1 }
      u
    }
  }

  def compute(g: WeightedGraph, s: Int, alpha: Double, walks: Long,
              seed: Long = 42): PprResult = {
    val t0 = System.nanoTime()
    val walker = new Walker(g, alpha, seed)
    val pi = new Array[Double](g.n)
    var w = 0L
    while (w < walks) { pi(walker.walk(s)) += 1.0; w += 1 }
    var u = 0
    while (u < g.n) { pi(u) /= walks; u += 1 }
    PprResult(pi, pushOps = 0, edgeTouches = 0, walkSteps = walker.steps,
      wallNanos = System.nanoTime() - t0)
  }

  /** Monte-Carlo compensation of push residues (FORA, SpeedPPR): for each
    * node u with r(u) > 0, run ⌈r(u)·ω⌉ (at least one) α-walks from u, each
    * adding r(u)/⌈r(u)·ω⌉ to `pi` at its stop node. Returns the walk steps.
    */
  private[core] def compensate(g: WeightedGraph, alpha: Double, r: Array[Double],
                               omega: Double, seed: Long, pi: Array[Double]): Long = {
    val walker = new Walker(g, alpha, seed)
    var u = 0
    while (u < g.n) {
      val ru = r(u)
      if (ru > 0) {
        val wU = math.max(1L, math.ceil(ru * omega).toLong)
        val inc = ru / wU
        var w = 0L
        while (w < wU) { pi(walker.walk(u)) += inc; w += 1 }
      }
      u += 1
    }
    walker.steps
  }
}
