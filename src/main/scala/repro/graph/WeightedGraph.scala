package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** An undirected weighted graph in CSR (compressed sparse row) form.
  *
  * Every undirected edge {u,v} appears as the two directed edges ⟨u,v⟩ and
  * ⟨v,u⟩ (the paper's bi-directional edge set Ē, |Ē| = 2m). Directed edges
  * are indexed 0..2m-1; the edges of node `u` occupy the slice
  * `[indptr(u), indptr(u+1))` of `nbr`/`wgt`.
  *
  * @param n      number of nodes (ids 0..n-1)
  * @param indptr CSR row pointers, length n+1
  * @param nbr    destination node of each directed edge, length 2m
  * @param wgt    weight A_uv of each directed edge, length 2m; strictly > 0
  */
final class WeightedGraph(
    val n: Int,
    val indptr: Array[Int],
    val nbr: Array[Int],
    val wgt: Array[Double],
) extends Serializable {

  /** Number of directed edges |Ē| = 2m. */
  def directedEdgeCount: Int = nbr.length

  /** Number of undirected edges m. */
  def m: Int = nbr.length / 2

  /** The walk kernel's checkpoints, length ⌊2m/8⌋: `blockSums(j)` is the
    * row-relative prefix sum of A at edge 8j+7, added from 0.0 in CSR order.
    */
  val blockSums: Array[Double] = new Array[Double](nbr.length >>> 3)

  /** Weighted degree d(u) = Σ_{v∈N(u)} A_uv: u's last row prefix sum. */
  val deg: Array[Double] = {
    val d = new Array[Double](n)
    var u = 0
    while (u < n) {
      var acc = 0.0
      var e = indptr(u)
      while (e < indptr(u + 1)) {
        acc += wgt(e)
        if ((e & 7) == 7) blockSums(e >>> 3) = acc
        e += 1
      }
      d(u) = acc
      u += 1
    }
    d
  }

  /** Neighborhood size n(u). */
  def nbrCount(u: Int): Int = indptr(u + 1) - indptr(u)

  /** Total edge weight ‖A‖₁ = Σ_{⟨u,v⟩∈Ē} A_uv. */
  val totalWeight: Double = deg.sum

  /** Weight of the directed edge ⟨u,v⟩, or 0 if absent (linear in n(u)). */
  def weightOf(u: Int, v: Int): Double = {
    var e = indptr(u)
    while (e < indptr(u + 1)) { if (nbr(e) == v) return wgt(e); e += 1 }
    0.0
  }

  /** Σ_{⟨u,v⟩∈Ē} √A_uv — the aggregate driving Theorem 2's threshold. */
  val sumSqrtWeights: Double = {
    var s = 0.0; var e = 0
    while (e < wgt.length) { s += math.sqrt(wgt(e)); e += 1 }
    s
  }

  /** Σ_{x∈N(v)} √A_xv for each node v (symmetric graph: in- = out-edges). */
  val sumSqrtWeightsPerNode: Array[Double] = {
    val s = new Array[Double](n)
    var u = 0
    while (u < n) {
      var e = indptr(u)
      while (e < indptr(u + 1)) { s(u) += math.sqrt(wgt(e)); e += 1 }
      u += 1
    }
    s
  }

  /** Sample `k` distinct-ish source nodes according to the degree
    * distribution (the paper's query-set construction), deterministically
    * in `seed`. Nodes with zero degree are never sampled.
    */
  def sampleSourcesByDegree(k: Int, seed: Long): Array[Int] = {
    val rnd = new scala.util.Random(seed)
    val cum = new Array[Double](n)
    var acc = 0.0
    var u = 0
    while (u < n) { acc += deg(u); cum(u) = acc; u += 1 }
    require(acc > 0, "graph has no edges")
    Array.fill(k) {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
    }
  }

  /** The graph as a Spark edge relation (src, dst, weight), one row per
    * directed edge in Ē — the input format of the `core.dist` dataflow
    * implementations.
    */
  def toEdgeDF(spark: SparkSession): DataFrame = {
    val rows = new Array[(Long, Long, Double)](nbr.length)
    var u = 0
    while (u < n) {
      var e = indptr(u)
      while (e < indptr(u + 1)) { rows(e) = (u.toLong, nbr(e).toLong, wgt(e)); e += 1 }
      u += 1
    }
    import spark.implicits._
    spark.createDataset(rows.toIndexedSeq).toDF("src", "dst", "weight")
  }
}

object WeightedGraph {

  /** Build a CSR graph from undirected edges (u, v, w). A pair that
    * appears twice (in either orientation), self-loops and weights that are
    * not finite and positive (≤ 0, ∞, NaN) are rejected. Isolated ids up to
    * `n-1` are kept.
    */
  def fromUndirectedEdges(n: Int, edges: Seq[(Int, Int, Double)]): WeightedGraph = {
    // One pass checks each edge and counts degrees. The checks throw from
    // `if`s: `require`'s by-name message would allocate a closure per check.
    val degCnt = new Array[Int](n)
    edges.foreach { case (u, v, w) =>
      if (u == v) throw new IllegalArgumentException(s"self-loop at $u")
      if (!(w > 0 && w < Double.PositiveInfinity))
        throw new IllegalArgumentException(s"weight $w on ($u,$v) is not finite and positive")
      if (u < 0 || u >= n || v < 0 || v >= n) throw new IllegalArgumentException(s"node id out of range: ($u,$v)")
      degCnt(u) += 1; degCnt(v) += 1
    }
    val indptr = new Array[Int](n + 1)
    var u = 0
    while (u < n) { indptr(u + 1) = indptr(u) + degCnt(u); u += 1 }
    val fill = indptr.clone()
    val nbr = new Array[Int](edges.size * 2)
    val wgt = new Array[Double](edges.size * 2)
    edges.foreach { case (a, b, w) =>
      nbr(fill(a)) = b; wgt(fill(a)) = w; fill(a) += 1
      nbr(fill(b)) = a; wgt(fill(b)) = w; fill(b) += 1
    }
    // A repeated pair puts v twice in u's row, whichever its orientation.
    // mark(v) == u + 1 once v has been seen in u's row.
    val mark = new Array[Int](n)
    u = 0
    while (u < n) {
      var e = indptr(u)
      while (e < indptr(u + 1)) {
        val v = nbr(e)
        if (mark(v) == u + 1) throw new IllegalArgumentException(s"pair ($u,$v) appears more than once")
        mark(v) = u + 1
        e += 1
      }
      u += 1
    }
    new WeightedGraph(n, indptr, nbr, wgt)
  }
}
