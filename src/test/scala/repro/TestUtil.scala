package repro

import repro.core.EdgePushSeq
import repro.graph.WeightedGraph

/** Shared helpers for the test suites. */
object TestUtil {

  /** Exact SSPPR by dense linear solve: π = α(I − (1−α)Pᵀ-form)⁻¹ e_s,
    * i.e. solve (I − (1−α)P)·π = α·e_s with P = A·D⁻¹ (column-stochastic
    * over out-degrees). Gaussian elimination; only for n ≤ ~300.
    */
  def exactPpr(g: WeightedGraph, s: Int, alpha: Double): Array[Double] = {
    val n = g.n
    require(n <= 400, "dense solve is for small test graphs")
    // M = I − (1−α)·P where P(v)(u) = A_uv/d(u) (mass flowing u→v).
    val M = Array.fill(n, n)(0.0)
    var i = 0
    while (i < n) { M(i)(i) = 1.0; i += 1 }
    var u = 0
    while (u < n) {
      if (g.deg(u) > 0) {
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          val v = g.nbr(e)
          M(v)(u) -= (1 - alpha) * g.wgt(e) / g.deg(u)
          e += 1
        }
      } else {
        // isolated node keeps its mass (absorbing), matching PowerMethodSeq
        M(u)(u) -= (1 - alpha)
      }
      u += 1
    }
    val b = new Array[Double](n)
    b(s) = alpha
    solve(M, b)
  }

  /** In-place Gaussian elimination with partial pivoting. */
  def solve(a0: Array[Array[Double]], b0: Array[Double]): Array[Double] = {
    val n = b0.length
    val a = a0.map(_.clone())
    val b = b0.clone()
    var col = 0
    while (col < n) {
      var piv = col
      var r = col + 1
      while (r < n) { if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r; r += 1 }
      val tmp = a(col); a(col) = a(piv); a(piv) = tmp
      val tb = b(col); b(col) = b(piv); b(piv) = tb
      require(math.abs(a(col)(col)) > 1e-12, "singular system")
      r = col + 1
      while (r < n) {
        val f = a(r)(col) / a(col)(col)
        if (f != 0) {
          var c = col
          while (c < n) { a(r)(c) -= f * a(col)(c); c += 1 }
          b(r) -= f * b(col)
        }
        r += 1
      }
      col += 1
    }
    val x = new Array[Double](n)
    var row = n - 1
    while (row >= 0) {
      var s = b(row)
      var c = row + 1
      while (c < n) { s -= a(row)(c) * x(c); c += 1 }
      x(row) = s / a(row)(row)
      row -= 1
    }
    x
  }

  /** EdgePush's π̂ and its terminal edge residues
    * R_e = (1−α)·q(u)·A_e/d(u) − Q_e, recomputed from `EdgePushSeq.run`'s
    * terminal income q and expense Q.
    */
  def edgePushWithResidues(g: WeightedGraph, s: Int, alpha: Double, theta: Array[Double],
                           scanSwitchFrac: Option[Double] = None): (Array[Double], Array[Double]) = {
    val (result, q, expense) = EdgePushSeq.run(g, s, alpha, theta, scanSwitchFrac)
    val residues = new Array[Double](g.directedEdgeCount)
    var u = 0
    while (u < g.n) {
      if (g.deg(u) > 0) {
        val scale = (1 - alpha) * q(u) / g.deg(u)
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          residues(e) = scale * g.wgt(e) - expense(e)
          e += 1
        }
      }
      u += 1
    }
    (result.pi, residues)
  }

  def assertClose(got: Double, want: Double, tol: Double, msg: String = ""): Unit =
    assert(math.abs(got - want) <= tol,
      s"$msg got=$got want=$want tol=$tol diff=${math.abs(got - want)}")

  def l1Diff(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => math.abs(x - y) }.sum
}
