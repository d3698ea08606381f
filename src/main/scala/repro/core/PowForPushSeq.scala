package repro.core

import repro.graph.WeightedGraph

/** PowForPush (§3, Wu et al.): LocalPush that switches to Power-Method-like
  * sequential scanning once the active frontier is large, avoiding random
  * access. Same asymptotics as the Power Method, better constants; the
  * state-of-the-art ℓ1 baseline in §6.2.
  *
  * Queue phase: identical to [[LocalPushSeq]]. When the queue holds more
  * than `scanSwitchFrac·n` nodes, it switches to full passes over all
  * nodes, pushing every node with r(u) ≥ d(u)·θ, until a pass pushes
  * nothing.
  */
object PowForPushSeq {

  def compute(g: WeightedGraph, s: Int, alpha: Double, theta: Double,
              scanSwitchFrac: Double = 0.125): PprResult = {
    require(theta > 0)
    val t0 = System.nanoTime()
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
          touches += 1 // sequential scan reads every node's residue
          if (eligible(u)) { pushNode(u, enqueue = false); anyPush = true }
          u += 1
        }
      }
    }
    PprResult(pi, pushOps, touches, walkSteps = 0, wallNanos = System.nanoTime() - t0)
  }
}
