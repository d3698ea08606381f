package repro.core

import repro.graph.WeightedGraph

/** FORA (§3, Wang et al.): forward push + Monte-Carlo refinement. Phase 1
  * runs LocalPush. Phase 2 compensates each leftover residue r(u)
  * with ⌈r(u)·ω⌉ α-random walks from u, each adding r(u)/⌈r(u)·ω⌉ to the
  * push's own π̂ at its stop node ([[MonteCarloSeq.compensate]]; each step
  * samples from the graph's checkpoints [[WeightedGraph.blockSums]], so
  * the walks allocate nothing per query).
  */
object ForaSeq {

  def compute(g: WeightedGraph, s: Int, alpha: Double, delta: Double,
              epsR: Double = 0.5, pf: Double = 1e-6, seed: Long = 42): PprResult =
    pushThenWalk(g, s, alpha, delta, epsR, pf, seed, scanSwitchFrac = None)

  /** FORA's (`None`) and SpeedPPR's two phases. With ω from
    * [[MonteCarloSeq.walkCount]], θ = √(2m/(α·ω))/‖A‖₁ balances the push
    * cost 2m/(αθ‖A‖₁) against the walk cost ω·θ·‖A‖₁.
    */
  private[core] def pushThenWalk(g: WeightedGraph, s: Int, alpha: Double, delta: Double,
                                 epsR: Double, pf: Double, seed: Long,
                                 scanSwitchFrac: Option[Double]): PprResult = {
    val t0 = System.nanoTime()
    val omega = MonteCarloSeq.walkCount(delta, epsR, pf).toDouble
    val theta = math.sqrt(g.directedEdgeCount.toDouble / (alpha * omega)) / g.totalWeight
    val (push, r) = PowForPushSeq.run(g, s, alpha, theta, scanSwitchFrac)
    val steps = MonteCarloSeq.compensate(g, alpha, r, omega, seed, push.pi)
    push.copy(walkSteps = steps, wallNanos = System.nanoTime() - t0)
  }
}
