package repro.core

import repro.graph.WeightedGraph
import repro.graphgen.{Affinity, GraphGen}

/** Graphs and a bit digest shared by the kernels' golden tests, which pin
  * push counts and the exact bits of π̂ recorded from an earlier kernel.
  */
object Goldens {

  /** The graph with one more node, which has no edges. */
  private def withIsolatedNode(g: WeightedGraph): WeightedGraph =
    WeightedGraph.fromUndirectedEdges(g.n + 1, GraphGen.undirectedEdges(g))

  /** FNV-1a over the exact bits of every entry, so two vectors that differ
    * in a single ulp anywhere get different digests.
    */
  def bitsDigest(xs: Array[Double]): Long =
    xs.foldLeft(0xcbf29ce484222325L)((h, x) =>
      (h ^ java.lang.Double.doubleToLongBits(x)) * 0x100000001b3L)

  /** Each graph's last node is isolated. */
  lazy val graphs: Map[String, WeightedGraph] = Map(
    "star" -> withIsolatedNode(GraphGen.unbalancedStar(300)),
    "complete" -> withIsolatedNode(GraphGen.unbalancedComplete(80)),
    "affinity" -> withIsolatedNode(Affinity.graph(200, Affinity.paperConfigs(0), seed = 17)),
    "chunglu" -> withIsolatedNode(
      GraphGen.withParetoWeights(GraphGen.chungLu(2000, 8, 2.3), 1.1)),
  )
}
