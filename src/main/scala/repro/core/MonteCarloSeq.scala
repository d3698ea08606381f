package repro.core

import repro.graph.WeightedGraph

/** Monte-Carlo sampling (§3): simulate W α-random walks from s; π̂(u) is
  * the fraction of walks that stop at u. On weighted graphs each step
  * moves to neighbor v with probability A_uv/d(u): the first edge of u's row
  * whose prefix sum reaches x, for x uniform in [0, d(u)), found from the
  * graph's checkpoints [[WeightedGraph.blockSums]] (see
  * [[MonteCarloSeq.Walker]]). A query allocates only its π̂.
  *
  * The walk count follows the standard (δ, ε_r, p_f) Chernoff setting used
  * by FORA/SpeedPPR: W = (2ε_r/3 + 2)·ln(2/p_f) / (ε_r²·δ).
  */
object MonteCarloSeq {

  /** Walk count for relative error ε_r at threshold δ w.p. 1−p_f. */
  def walkCount(delta: Double, epsR: Double, pf: Double): Long =
    math.ceil((2 * epsR / 3 + 2) * math.log(2.0 / pf) / (epsR * epsR * delta)).toLong

  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The α-walk kernel of MC, FORA and SpeedPPR, for one query.
    *
    * It draws the stream of `new java.util.Random(seed)` from a plain
    * `Long` copy of its 48-bit LCG (no `AtomicLong` per draw). A step binary
    * searches the checkpoints [[WeightedGraph.blockSums]] in u's row, then
    * adds at most 8 weights: O(log(n(u)/8) + 8), with nothing allocated.
    */
  private[core] final class Walker(g: WeightedGraph, alpha: Double, seed: Long) {
    private var rnd = (seed ^ Multiplier) & Mask

    /** Moves made by every walk so far. */
    var steps = 0L

    /** The next value of `java.util.Random.nextDouble()`. */
    private[core] def nextDouble(): Double =
      ((next(26).toLong << 27) + next(27)) * DoubleUnit

    private def next(bits: Int): Int = {
      rnd = (rnd * Multiplier + Addend) & Mask
      (rnd >>> (48 - bits)).toInt
    }

    /** The first edge of u's row whose row prefix sum is ≥ x, else the
      * row's last edge: recomputed from the checkpoint before the first one
      * ≥ x by the additions that filled it, so bit-identical to full sums.
      */
    private[core] def pick(u: Int, x: Double): Int = {
      val lo = g.indptr(u)
      val last = g.indptr(u + 1) - 1
      val sums = g.blockSums
      val first = lo >>> 3
      var a = first
      var b = (last + 1) >>> 3 // one past the row's last checkpoint
      while (a < b) {
        val mid = (a + b) >>> 1
        if (sums(mid) < x) a = mid + 1 else b = mid
      }
      var e = lo // the first edge after checkpoint a − 1; acc, the sum before it
      var acc = 0.0
      if (a > first) { e = a << 3; acc = sums(a - 1) }
      if (e > last) last // the row's last edge is a checkpoint, and < x
      else {
        acc += g.wgt(e)
        while (acc < x && e < last) { e += 1; acc += g.wgt(e) }
        e
      }
    }

    /** A neighbor of u, drawn proportional to edge weight. */
    private[core] def sample(u: Int): Int = g.nbr(pick(u, nextDouble() * g.deg(u)))

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
