package repro.core

import repro.graph.WeightedGraph

/** FORA (§3, Wang et al.): forward push + Monte-Carlo refinement.
  *
  * Phase 1 runs LocalPush with a threshold θ chosen to balance the push
  * cost 2m/(αθ‖A‖₁) against the walk cost ω·Σr ≤ ω·θ·‖A‖₁, i.e.
  * θ = √(2m/(α·ω)) / ‖A‖₁. Phase 2 compensates each leftover residue
  * r(u) with ⌈r(u)·ω⌉ α-random walks from u, each depositing
  * r(u)/⌈r(u)·ω⌉ at its stop node ([[MonteCarloSeq.compensate]]; each
  * step samples from the graph's checkpoints [[WeightedGraph.blockSums]],
  * so the walks allocate nothing per query).
  */
object ForaSeq {

  def compute(g: WeightedGraph, s: Int, alpha: Double, delta: Double,
              epsR: Double = 0.5, pf: Double = 1e-6, seed: Long = 42): PprResult = {
    val t0 = System.nanoTime()
    val omega = MonteCarloSeq.walkCount(delta, epsR, pf).toDouble
    val theta = math.sqrt(g.directedEdgeCount.toDouble / (alpha * omega)) / g.totalWeight

    val (pushRes, r) = LocalPushSeq.run(g, s, alpha, theta)
    val pi = pushRes.pi.clone()

    val steps = MonteCarloSeq.compensate(g, alpha, r, omega, seed, pi)
    PprResult(pi, pushRes.pushOps, pushRes.edgeTouches, steps,
      wallNanos = System.nanoTime() - t0)
  }
}
