package perfbench

import repro.graph.WeightedGraph

/** The error guarantee a method states for its estimate π̂. */
sealed trait Guarantee
object Guarantee {
  /** Theorem 3 / Fact 2: max_u |π̂(u) − π(u)| / d(u) ≤ r_max, and π̂ ≤ π. */
  final case class NormalizedAdditive(rmax: Double) extends Guarantee
  /** Theorem 2 / Fact 1: ‖π̂ − π‖₁ ≤ ε, and π̂ ≤ π. */
  final case class L1(eps: Double) extends Guarantee
  /** |π̂(u) − π(u)| ≤ ε_r·π(u) wherever π(u) ≥ δ (MC, FORA, SpeedPPR). */
  final case class Relative(epsR: Double, delta: Double) extends Guarantee
}

/** Single-source PPR computed without `repro.core`, to check every
  * method's guarantee against.
  *
  * It sums the series π = Σ_k α(1−α)^k·P^k·e_s for k < L over the CSR
  * arrays, with P moving mass from u to v in proportion A_uv / d(u). Every
  * term is non-negative and the terms left out hold (1−α)^L of the mass,
  * so the sum S brackets the exact vector: S ≤ π ≤ S + (1−α)^L on every
  * node. L is chosen so that (1−α)^L is a thousandth of the tightest
  * bound any check of the workload uses.
  */
final class Reference(g: WeightedGraph, alpha: Double, tightestBound: Double) {
  /** Weighted degrees, summed here rather than taken from the graph. */
  val deg: Array[Double] = Array.tabulate(g.n) { u =>
    var d = 0.0
    var e = g.indptr(u)
    while (e < g.indptr(u + 1)) { d += g.wgt(e); e += 1 }
    d
  }

  val iterations: Int =
    math.ceil(math.log(1e-3 * tightestBound) / math.log(1 - alpha)).toInt

  /** Upper bound on π(u) − S(u) for every node u. */
  val tail: Double = math.pow(1 - alpha, iterations)

  /** Absolute slack for floating-point rounding in the sums compared. */
  private val Rounding = 1e-12

  def ppr(s: Int): Array[Double] = {
    val n = g.n
    val sum = new Array[Double](n)
    var x = new Array[Double](n)
    var next = new Array[Double](n)
    x(s) = 1.0
    var k = 0
    while (k < iterations) {
      java.util.Arrays.fill(next, 0.0)
      var u = 0
      while (u < n) {
        val xu = x(u)
        if (xu != 0.0) {
          sum(u) += alpha * xu
          if (deg(u) > 0) {
            val scale = (1 - alpha) * xu / deg(u)
            var e = g.indptr(u)
            while (e < g.indptr(u + 1)) { next(g.nbr(e)) += scale * g.wgt(e); e += 1 }
          } else next(u) += (1 - alpha) * xu // an isolated node keeps its walk
        }
        u += 1
      }
      val t = x; x = next; next = t
      k += 1
    }
    sum
  }

  /** The first violation of `guarantee` (and, for push methods, of
    * π̂ ≤ π) by `est` against the reference sum `s`, if any.
    */
  def violation(est: Array[Double], s: Array[Double], guarantee: Guarantee): Option[String] = {
    def under(): Option[String] =
      s.indices.find(u => est(u) > s(u) + tail + Rounding).map(u =>
        f"overestimates node $u: ${est(u)}%.6e > π ≤ ${s(u) + tail}%.6e")
    guarantee match {
      case Guarantee.NormalizedAdditive(rmax) =>
        under().orElse(s.indices.find(u =>
          math.abs(est(u) - s(u)) > rmax * deg(u) + tail + Rounding).map(u =>
          f"node $u: |π̂−π| = ${math.abs(est(u) - s(u))}%.6e > r_max·d(u) = ${rmax * deg(u)}%.6e"))
      case Guarantee.L1(eps) =>
        val l1 = s.indices.map(u => math.abs(est(u) - s(u))).sum
        under().orElse(
          if (l1 > eps + tail + Rounding) Some(f"‖π̂−π‖₁ = $l1%.6e > ε = $eps%.3e") else None)
      case Guarantee.Relative(epsR, delta) =>
        // Only nodes whose π is known to reach δ; π lies in [s, s + tail].
        s.indices.find(u => s(u) >= delta &&
          (est(u) < (1 - epsR) * s(u) - Rounding ||
            est(u) > (1 + epsR) * (s(u) + tail) + Rounding)).map(u =>
          f"node $u: π̂ = ${est(u)}%.6e outside (1±$epsR)·π, π ≈ ${s(u)}%.6e")
    }
  }
}

/** Query sources drawn by degree, the paper's query-set construction. */
object Sources {

  /** `k` sources by systematic sampling on the cumulative degree: source
    * i sits at (i + U)/k of the total degree, for one seeded U. Each node
    * is drawn with probability ∝ d(u), as in
    * `WeightedGraph.sampleSourcesByDegree`, but every degree stratum is
    * represented once, so the median query time of a run, which is taken
    * over whole passes of the pool, varies less between seeds.
    */
  def pool(g: WeightedGraph, k: Int, seed: Long): Array[Int] = {
    val cum = g.deg.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    require(total > 0, "graph has no edges")
    val u0 = new scala.util.Random(seed).nextDouble()
    Array.tabulate(k) { i =>
      val x = (i + u0) / k * total
      // the first node whose cumulative degree passes x has d(u) > 0
      var lo = 0
      var hi = g.n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) <= x) lo = mid + 1 else hi = mid
      }
      lo
    }
  }
}
