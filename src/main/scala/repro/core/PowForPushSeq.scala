package repro.core

import repro.graph.WeightedGraph

/** PowForPush (§3, Wu et al.): LocalPush that switches to Power-Method-like
  * sequential scanning once the active frontier is large, avoiding random
  * access. Same asymptotics as the Power Method, better constants; the
  * state-of-the-art ℓ1 baseline in §6.2.
  */
object PowForPushSeq {

  private[core] val DefaultScanSwitchFrac = 0.125 // PowForPush's and SpeedPPR's

  def compute(g: WeightedGraph, s: Int, alpha: Double, theta: Double,
              scanSwitchFrac: Double = DefaultScanSwitchFrac): PprResult =
    run(g, s, alpha, theta, Some(scanSwitchFrac))._1

  /** The node-push kernel of LocalPush, PowForPush, FORA and SpeedPPR: push
    * from s until r(u) < d(u)·θ on every node with edges, and return π̂ with
    * the terminal residues r. It pushes queued nodes in FIFO order. With
    * `Some(f)`, once the queue holds more than max(1, f·n) nodes, it drops
    * the queue and makes passes over all nodes, pushing each one with
    * r(u) ≥ d(u)·θ, until a pass pushes nothing; `None` never switches.
    * Touches: one per edge a push reads, plus one per node a scan reads.
    */
  def run(g: WeightedGraph, s: Int, alpha: Double, theta: Double,
          scanSwitchFrac: Option[Double]): (PprResult, Array[Double]) = {
    require(theta > 0)
    val t0 = System.nanoTime()
    val r = new Array[Double](g.n)
    val pi = new Array[Double](g.n)
    val inQ = new Array[Boolean](g.n)
    val queue = new IntFifo
    r(s) = 1.0
    var pushOps = 0L; var touches = 0L
    val switchAt = scanSwitchFrac.fold(Double.PositiveInfinity)(f => math.max(1.0, f * g.n))
    var switched = false

    def eligible(u: Int): Boolean = g.deg(u) > 0 && r(u) >= g.deg(u) * theta

    if (eligible(s)) { queue.reserve(1); queue.add(s); inQ(s) = true }
    while (!queue.isEmpty && !switched) {
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
      if (queue.size > switchAt) switched = true
    }

    var anyPush = switched
    while (anyPush) {
      anyPush = false
      var u = 0
      while (u < g.n) {
        touches += 1
        if (eligible(u)) {
          val ru = r(u)
          pi(u) += alpha * ru
          r(u) = 0.0
          val scale = (1 - alpha) * ru / g.deg(u)
          var e = g.indptr(u)
          val end = g.indptr(u + 1)
          touches += end - e
          while (e < end) { r(g.nbr(e)) += scale * g.wgt(e); e += 1 }
          pushOps += 1
          anyPush = true
        }
        u += 1
      }
    }
    (PprResult(pi, pushOps, touches, walkSteps = 0, wallNanos = System.nanoTime() - t0), r)
  }
}
