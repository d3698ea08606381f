package repro.core.dist

import scala.collection.mutable.ArrayBuffer
import repro.graph.WeightedGraph

/** Test oracle for [[LocalPushDF]]: the same superstep semantics over CSR
  * arrays. Each superstep pushes every active node (d(u) > 0 and
  * r(u) ≥ d(u)·θ) at once, all against the residues of the previous
  * superstep: p(u) += α·r(u), r(u) ← 0, and every neighbour v receives
  * (1−α)·r(u)·A_uv/d(u). A superstep's work is Σ n(u) over its active
  * nodes; the run terminates when no node is active.
  */
object LocalPushBsp {

  def run(g: WeightedGraph, s: Int, alpha: Double, theta: Double,
          maxSupersteps: Int = 500): BspRun = {
    var r = new Array[Double](g.n)
    r(s) = 1.0
    val p = new Array[Double](g.n)
    val work = ArrayBuffer.empty[Long]
    var done = false
    while (!done && work.length < maxSupersteps) {
      val active = (0 until g.n).filter(u => g.deg(u) > 0 && r(u) >= g.deg(u) * theta)
      if (active.isEmpty) done = true
      else {
        work += active.map(g.nbrCount(_).toLong).sum
        val next = r.clone()
        for (u <- active) {
          p(u) += alpha * r(u)
          next(u) = 0.0
        }
        for (u <- active; e <- g.indptr(u) until g.indptr(u + 1))
          next(g.nbr(e)) += (1 - alpha) * r(u) * g.wgt(e) / g.deg(u)
        r = next
      }
    }
    BspRun(p, work.length, work.toList, done)
  }
}
