package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.graphgen.GraphGen

class WeightedGraphSpec extends SparkSpec {

  private def triangle: WeightedGraph =
    WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)))

  test("triangle: node and edge counts") {
    val g = triangle
    assert(g.n == 3)
    assert(g.m == 3)
    assert(g.directedEdgeCount == 6)
  }

  test("triangle: weighted degrees") {
    val g = triangle
    assert(g.deg(0) == 7.0)
    assert(g.deg(1) == 5.0)
    assert(g.deg(2) == 8.0)
  }

  test("triangle: total weight is twice the undirected sum") {
    assert(triangle.totalWeight == 20.0)
  }

  test("triangle: neighborhood sizes") {
    val g = triangle
    (0 until 3).foreach(u => assert(g.nbrCount(u) == 2))
  }

  test("triangle: weightOf is symmetric") {
    val g = triangle
    assert(g.weightOf(0, 1) == 2.0 && g.weightOf(1, 0) == 2.0)
    assert(g.weightOf(1, 2) == 3.0 && g.weightOf(2, 1) == 3.0)
    assert(g.weightOf(0, 2) == 5.0 && g.weightOf(2, 0) == 5.0)
  }

  test("weightOf returns 0 for absent edges") {
    val g = WeightedGraph.fromUndirectedEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    assert(g.weightOf(0, 2) == 0.0)
    assert(g.weightOf(1, 3) == 0.0)
  }

  test("sumSqrtWeights matches direct computation") {
    val g = triangle
    val want = 2 * (math.sqrt(2.0) + math.sqrt(3.0) + math.sqrt(5.0))
    assert(math.abs(g.sumSqrtWeights - want) < 1e-12)
  }

  test("sumSqrtWeightsPerNode matches direct computation") {
    val g = triangle
    assert(math.abs(g.sumSqrtWeightsPerNode(0) - (math.sqrt(2.0) + math.sqrt(5.0))) < 1e-12)
    assert(math.abs(g.sumSqrtWeightsPerNode(1) - (math.sqrt(2.0) + math.sqrt(3.0))) < 1e-12)
    assert(math.abs(g.sumSqrtWeightsPerNode(2) - (math.sqrt(3.0) + math.sqrt(5.0))) < 1e-12)
  }

  test("isolated nodes are preserved with degree 0") {
    val g = WeightedGraph.fromUndirectedEdges(5, Seq((0, 1, 1.0)))
    assert(g.deg(2) == 0.0 && g.deg(3) == 0.0 && g.deg(4) == 0.0)
    assert(g.nbrCount(2) == 0)
  }

  test("blockSums and deg are the rows' prefix sums, bit for bit") {
    // ids 7, 15, 23, … stay isolated; weights span 20 orders of magnitude
    val spread = (u: Int) => u + u / 7
    val rnd = new scala.util.Random(5)
    val edges = GraphGen.undirectedEdges(GraphGen.randomGraph(60, 0.2, seed = 3))
      .map { case (u, v, _) => (spread(u), spread(v), math.pow(10, -10 + 20 * rnd.nextDouble())) }
    val g = WeightedGraph.fromUndirectedEdges(spread(59) + 1, edges)
    assert((0 until g.n).exists(g.nbrCount(_) == 0))
    assert(g.blockSums.length == 2 * g.m / 8)
    val bits = java.lang.Double.doubleToLongBits _
    var checked = 0
    for (u <- 0 until g.n) {
      var acc = 0.0
      for (e <- g.indptr(u) until g.indptr(u + 1)) {
        acc += g.wgt(e)
        if (e % 8 == 7) { assert(bits(g.blockSums(e / 8)) == bits(acc), s"edge $e"); checked += 1 }
      }
      assert(bits(g.deg(u)) == bits(acc), s"node $u")
    }
    assert(checked == g.blockSums.length)
  }

  test("blockSums is empty below 8 directed edges") {
    assert(triangle.blockSums.isEmpty)
    assert(WeightedGraph.fromUndirectedEdges(3, Seq.empty[(Int, Int, Double)]).blockSums.isEmpty)
  }

  test("self-loops are rejected") {
    intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(3, Seq((1, 1, 1.0)))
    }
  }

  test("non-positive weights are rejected") {
    intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, 0.0)))
    }
    intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, -2.0)))
    }
  }

  test("non-finite weights are rejected") {
    for (w <- Seq(Double.PositiveInfinity, Double.NaN))
      intercept[IllegalArgumentException] {
        WeightedGraph.fromUndirectedEdges(3, Seq((0, 1, 1.0), (1, 2, w)))
      }
  }

  test("a pair repeated in the same orientation is rejected") {
    val e = intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(4, Seq((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)))
    }
    assert(e.getMessage.contains("(0,1)"))
  }

  test("a pair repeated in the opposite orientation is rejected") {
    val e = intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(4, Seq((2, 3, 1.0), (0, 1, 1.0), (3, 2, 1.0)))
    }
    assert(e.getMessage.contains("(2,3)"))
  }

  test("out-of-range node ids are rejected") {
    intercept[IllegalArgumentException] {
      WeightedGraph.fromUndirectedEdges(3, Seq((0, 3, 1.0)))
    }
  }

  test("sampleSourcesByDegree only returns positive-degree nodes") {
    val g = WeightedGraph.fromUndirectedEdges(6, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val srcs = g.sampleSourcesByDegree(200, seed = 1)
    assert(srcs.forall(s => g.deg(s) > 0))
  }

  test("sampleSourcesByDegree is deterministic in the seed") {
    val g = GraphGen.randomGraph(40, 0.15, seed = 9)
    assert(g.sampleSourcesByDegree(10, 3).toSeq == g.sampleSourcesByDegree(10, 3).toSeq)
    assert(g.sampleSourcesByDegree(10, 3).toSeq != g.sampleSourcesByDegree(10, 4).toSeq)
  }

  test("sampleSourcesByDegree is degree-biased") {
    // star: center has degree n-1, leaves degree 1 — center should dominate.
    val n = 21
    val edges = (1 until n).map(v => (0, v, 1.0))
    val g = WeightedGraph.fromUndirectedEdges(n, edges)
    val srcs = g.sampleSourcesByDegree(1000, seed = 2)
    val centerFrac = srcs.count(_ == 0).toDouble / srcs.length
    assert(centerFrac > 0.4 && centerFrac < 0.6, s"centerFrac=$centerFrac (expect ~0.5)")
  }

  test("toEdgeDF emits both orientations of every edge") {
    val g = triangle
    val df = g.toEdgeDF(spark)
    assert(df.count() == 6)
    val rows = df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(rows.contains((0L, 1L, 2.0)) && rows.contains((1L, 0L, 2.0)))
  }

  test("oracle: weighted degrees via DuckDB SQL") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.randomGraph(20, 0.25, seed = 13)
    val edges = g.toEdgeDF(spark)
    val sparkDeg = edges.groupBy(col("src").as("node"))
      .agg(sum("weight").as("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      "SELECT src AS node, sum(CAST(weight AS DOUBLE)) AS deg FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("oracle: total weight via DuckDB SQL") {
    import org.apache.spark.sql.functions._
    val g = GraphGen.randomGraph(20, 0.25, seed = 13)
    val edges = g.toEdgeDF(spark)
    val sparkTotal = edges.agg(sum("weight").as("total"))
    Oracle.assertEquivalent(
      sparkTotal,
      "SELECT sum(CAST(weight AS DOUBLE)) AS total FROM edges",
      "edges" -> edges)
  }
}
