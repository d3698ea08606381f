package repro.core

import repro.graph.WeightedGraph

/** LocalPush (Algorithm 1) — the MAPPR variant for weighted graphs.
  * Maintains residue r and reserve π̂; repeatedly pushes every node u with
  * r(u) ≥ d(u)·θ, distributing (1−α)·r(u) to *all* neighbors proportional
  * to edge weight. FIFO queue scheduling (the standard implementation):
  * [[PowForPushSeq.run]] without the switch to scans. One node push costs
  * n(u) edge touches — the quantity Table 1 bounds by m/(αε) resp.
  * m/(α·r_max·‖A‖₁).
  */
object LocalPushSeq {

  /** Run to completion with global termination threshold θ (θ = ε/‖A‖₁
    * for ℓ1-error ε per Fact 1; θ = r_max per Fact 2).
    */
  def compute(g: WeightedGraph, s: Int, alpha: Double, theta: Double): PprResult =
    run(g, s, alpha, theta)._1

  /** Also returns the terminal residues r, each below d(u)·θ. */
  def run(g: WeightedGraph, s: Int, alpha: Double, theta: Double): (PprResult, Array[Double]) =
    PowForPushSeq.run(g, s, alpha, theta, None)
}
