package repro.core

import repro.graph.WeightedGraph

/** SpeedPPR (§3, Wu et al.): PowForPush for the push phase + the same
  * Monte-Carlo residue compensation as FORA ([[MonteCarloSeq.compensate]],
  * whose steps sample from the graph's checkpoints
  * [[WeightedGraph.blockSums]]; nothing is built per query). The
  * scan-switching push makes the deterministic phase cheaper at small
  * thresholds, which is where SpeedPPR overtakes FORA.
  */
object SpeedPprSeq {

  def compute(g: WeightedGraph, s: Int, alpha: Double, delta: Double,
              epsR: Double = 0.5, pf: Double = 1e-6, seed: Long = 42,
              scanSwitchFrac: Double = 0.125): PprResult = {
    val t0 = System.nanoTime()
    val omega = MonteCarloSeq.walkCount(delta, epsR, pf).toDouble
    val theta = math.sqrt(g.directedEdgeCount.toDouble / (alpha * omega)) / g.totalWeight

    // PowForPush phase. We need residues afterwards: recompute them from
    // the invariant is impossible without r, so inline a residue-retaining
    // run of the same switching logic.
    val r = new Array[Double](g.n)
    val pi = new Array[Double](g.n)
    val inQ = new Array[Boolean](g.n)
    val queue = new IntFifo
    r(s) = 1.0
    var pushOps = 0L
    var touches = 0L
    val switchAt = math.max(1.0, scanSwitchFrac * g.n)
    var switched = false

    def eligible(u: Int): Boolean = g.deg(u) > 0 && r(u) >= g.deg(u) * theta

    def pushNode(u: Int, enqueue: Boolean): Unit = {
      val ru = r(u)
      pi(u) += alpha * ru
      r(u) = 0.0
      val scale = (1 - alpha) * ru / g.deg(u)
      var e = g.indptr(u)
      while (e < g.indptr(u + 1)) {
        val v = g.nbr(e)
        r(v) += scale * g.wgt(e)
        if (enqueue && !inQ(v) && eligible(v)) { queue.add(v); inQ(v) = true }
        e += 1
      }
      touches += g.nbrCount(u)
      pushOps += 1
    }

    if (eligible(s)) { queue.reserve(1); queue.add(s); inQ(s) = true }
    while (!queue.isEmpty && !switched) {
      val u = queue.poll()
      inQ(u) = false
      // Room for the push's enqueues is made here, not in pushNode, which the
      // scan phase shares.
      if (eligible(u)) { queue.reserve(g.nbrCount(u)); pushNode(u, enqueue = true) }
      if (queue.size > switchAt) switched = true
    }
    if (switched) {
      var anyPush = true
      while (anyPush) {
        anyPush = false
        var u = 0
        while (u < g.n) {
          touches += 1
          if (eligible(u)) { pushNode(u, enqueue = false); anyPush = true }
          u += 1
        }
      }
    }

    // Monte-Carlo compensation of the remaining residues (as in FORA).
    val steps = MonteCarloSeq.compensate(g, alpha, r, omega, seed, pi)
    PprResult(pi, pushOps, touches, steps, wallNanos = System.nanoTime() - t0)
  }
}
