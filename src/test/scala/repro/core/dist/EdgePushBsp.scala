package repro.core.dist

import scala.collection.mutable.ArrayBuffer
import repro.graph.WeightedGraph

/** One bulk-synchronous run over CSR arrays: π̂ as a dense array (0 on
  * isolated nodes, which the dataflows leave out), the supersteps that
  * pushed, the work of each, and whether the run ended by termination.
  */
final case class BspRun(pi: Array[Double], supersteps: Int, perStepWork: Seq[Long],
                        converged: Boolean)

/** Test oracle for [[EdgePushDF]]: the same superstep semantics over CSR
  * arrays. Each superstep pushes every edge with
  * R_e = (1−α)·q(u)·A_e/d(u) − Q_e ≥ θ_e, all against the q of the
  * previous superstep; the run terminates when no edge qualifies.
  * `theta` is indexed by CSR position, as [[repro.core.Thresholds]] builds it.
  */
object EdgePushBsp {

  def run(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
          maxSupersteps: Int = 500): BspRun = {
    val q = new Array[Double](g.n)
    q(s) = 1.0
    val expense = new Array[Double](g.directedEdgeCount)
    val work = ArrayBuffer.empty[Long]
    var done = false
    while (!done && work.length < maxSupersteps) {
      val dq = new Array[Double](g.n)
      var pushes = 0L
      for (u <- 0 until g.n; e <- g.indptr(u) until g.indptr(u + 1)) {
        val r = (1 - alpha) * q(u) * g.wgt(e) / g.deg(u) - expense(e)
        if (r >= theta(e)) {
          expense(e) += r
          dq(g.nbr(e)) += r
          pushes += 1
        }
      }
      if (pushes == 0) done = true
      else {
        work += pushes
        for (v <- 0 until g.n) q(v) += dq(v)
      }
    }
    BspRun(Array.tabulate(g.n)(u => if (g.deg(u) > 0) alpha * q(u) else 0.0),
      work.length, work.toList, done)
  }
}
