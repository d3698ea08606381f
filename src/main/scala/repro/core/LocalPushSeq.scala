package repro.core

import repro.graph.WeightedGraph

/** LocalPush (Algorithm 1) — the MAPPR variant for weighted graphs.
  *
  * Maintains residue r and reserve π̂; repeatedly pushes every node u with
  * r(u) ≥ d(u)·θ, distributing (1−α)·r(u) to *all* neighbors proportional
  * to edge weight. FIFO queue scheduling (the standard implementation).
  *
  * Cost accounting: one node push costs n(u) edge touches — this is the
  * quantity Table 1 bounds by m/(αε) resp. m/(α·r_max·‖A‖₁).
  */
object LocalPushSeq {

  /** Run to completion with global termination threshold θ
    * (θ = ε/‖A‖₁ for ℓ1-error ε per Fact 1; θ = r_max per Fact 2).
    */
  def compute(g: WeightedGraph, s: Int, alpha: Double, theta: Double): PprResult =
    run(g, s, alpha, theta)._1

  /** Full run also returning the terminal residue vector r (every entry
    * satisfies r(u) < d(u)·θ) — used by the invariant tests and by FORA's
    * walk phase.
    */
  def run(g: WeightedGraph, s: Int, alpha: Double,
          theta: Double): (PprResult, Array[Double]) = {
    require(theta > 0)
    val t0 = System.nanoTime()
    val r = new Array[Double](g.n)
    val pi = new Array[Double](g.n)
    val inQ = new Array[Boolean](g.n)
    val queue = new IntFifo
    r(s) = 1.0
    var pushOps = 0L
    var touches = 0L

    def eligible(u: Int): Boolean = g.deg(u) > 0 && r(u) >= g.deg(u) * theta

    if (eligible(s)) { queue.reserve(1); queue.add(s); inQ(s) = true }
    while (!queue.isEmpty) {
      val u = queue.poll()
      inQ(u) = false
      if (eligible(u)) {
        val ru = r(u)
        pi(u) += alpha * ru
        r(u) = 0.0
        val scale = (1 - alpha) * ru / g.deg(u)
        var e = g.indptr(u)
        queue.reserve(g.indptr(u + 1) - e)
        while (e < g.indptr(u + 1)) {
          val v = g.nbr(e)
          r(v) += scale * g.wgt(e)
          touches += 1
          if (!inQ(v) && eligible(v)) { queue.add(v); inQ(v) = true }
          e += 1
        }
        pushOps += 1
        // A push can refill r(u) only via a neighbor pushing back later;
        // that neighbor's push re-enqueues u, so no self-check is needed.
      }
    }
    (PprResult(pi, pushOps, touches, walkSteps = 0,
      wallNanos = System.nanoTime() - t0), r)
  }
}
