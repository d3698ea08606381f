package repro.core.dist

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{BooleanType, DoubleType, LongType, StructField, StructType}

/** The superstep shape shared by [[EdgePushDF]] and [[LocalPushDF]]: bring
  * each frontier node's out-edges together with its income, push, and
  * keep what changed.
  *
  * Relations of one query:
  *   - the edges `(src, dst, weight, …)`, both orientations present,
  *     materialized once unless already stored;
  *   - the sparse state `(src, dst, q, expense, …, pushed)`. An edge row
  *     exists for each edge that has sent mass: `expense` is what it has
  *     sent in total, `pushed` marks the edges that sent in the last
  *     superstep. A node row (`dst` null) holds a node's income
  *     q(u) = [u=s] + Σ_{e into u} expense_e and the per-node state
  *     columns; every node with an out-edge that has been on the frontier
  *     has one;
  *   - the frontier: the nodes an edge pushed to in the last superstep,
  *     i.e. whose income grew; initially {s}.
  *
  * An edge's push depends only on q(src), d(src) and the state of the edge
  * and of its source, and off the frontier none of them changed, so with positive thresholds only
  * the frontier's out-edges can push. One superstep is one materialized
  * pass with one shuffle: the frontier's out-edges, its state rows and the
  * edge rows into it are selected by a local filter and grouped by the
  * frontier node; windows over that grouping give d(u) = Σ A, q(u) and
  * each edge's state. The rest of the state passes through unshuffled.
  * The push count and the next frontier come from the same pass via an
  * [[org.apache.spark.sql.Observation]]; the frontier is a local set of
  * node ids, as in a sparse edge-map round (Ligra).
  */
private[dist] object FrontierPush {

  /** @param state       the state after the last applied superstep, with
    *                    current node rows
    * @param perStepWork pushing rows per applied superstep
    * @param converged   the last pass found no pushing row
    */
  final case class Run(state: DataFrame, perStepWork: List[Long], converged: Boolean) {
    /** `(node, value)` over the node rows. */
    def nodes(value: Column): DataFrame =
      state.filter(col("dst").isNull).select(col("src").as("node"), value)
  }

  /** Runs supersteps until a pass pushes nothing or `maxSupersteps` have
    * been applied. The pass after the last allowed superstep only counts
    * its pushes and refreshes the node rows, so `converged` tells whether
    * the capped run had terminated.
    *
    * @param edges    `(src, dst, weight, …)`, both orientations present
    * @param nodeCols per-node Double state columns besides q (0 initially)
    * @param update   the next `expense` and `nodeCols`, over the joined
    *                 columns: the edge's (null on a node row), `dsrc`,
    *                 `q`, `expense` and `nodeCols`
    * @param pushes   whether the edge pushes, over the same columns
    */
  def run(edges: DataFrame, s: Long, maxSupersteps: Int, nodeCols: Seq[String])
         (update: Seq[Column], pushes: Column): Run = {
    val spark = edges.sparkSession
    val edgeCols = edges.columns.toSeq.filterNot(Set("src", "dst"))
    val static = GraphFrames.stored(edges)
    val nodeType = edges.schema("src").dataType
    val stateCols = "expense" +: nodeCols
    val schema = StructType(Seq(StructField("src", nodeType), StructField("dst", nodeType)) ++
      ("q" +: stateCols).map(StructField(_, DoubleType)) :+ StructField("pushed", BooleanType))
    var state = spark.createDataFrame(List.empty[Row].asJava, schema)
    var frontier: Seq[Any] = Seq(s)
    var work = List.empty[Long]
    var converged = false
    val byNode = Window.partitionBy("src")
    val byEdge = Window.partitionBy("src", "dst")
    var stop = false
    while (!stop) {
      val checkOnly = work.length >= maxSupersteps
      def onFrontier(c: String) = col(c).isin(frontier: _*)
      val nodes = spark.createDataFrame(frontier.map(Row(_)).asJava,
          StructType(Seq(StructField("src", LongType))))
        .select(col("src").cast(nodeType).as("src"), lit(true).as("node"))
      val pass = nodes
        .unionByName(static.filter(onFrontier("src")), allowMissingColumns = true)
        .unionByName(state.filter(onFrontier("src")).select(("src" +: "dst" +: stateCols).map(col): _*),
          allowMissingColumns = true)
        .unionByName(state.filter(onFrontier("dst")).select(col("dst").as("src"),
          col("expense").as("income")), allowMissingColumns = true)
        .select(Seq(col("src"), col("dst"), col("node")) ++ edgeCols.map(col) ++ Seq(
          sum("weight").over(byNode).as("dsrc"),
          (coalesce(sum("income").over(byNode), lit(0.0)) +
            when(col("src") === s, 1.0).otherwise(0.0)).as("q"),
          coalesce(max("expense").over(byEdge), lit(0.0)).as("expense")) ++
          nodeCols.map(c => coalesce(max(c).over(byNode), lit(0.0)).as(c)): _*)
        // out-edges, and the node row of each frontier node with an out-edge
        .filter(col("weight").isNotNull || (col("node") && col("dsrc").isNotNull))
        .select(Seq(col("src"), col("dst"), when(col("dst").isNull, col("q")).as("q")) ++
          (if (checkOnly) stateCols.map(col) else update) :+
          (pushes && col("dst").isNotNull).as("pushed"): _*)
        .unionByName(state.filter(!onFrontier("src")).withColumn("pushed", lit(false)))
        // the union's partitions would otherwise add up over the supersteps
        .coalesce(spark.sparkContext.defaultParallelism)
      val (next, m) = GraphFrames.materializeObserved(pass,
        count(when(col("pushed"), 1)).as("pushes"),
        collect_set(when(col("pushed"), col("dst"))).as("frontier"))
      state = next.filter(col("expense") > 0 || col("dst").isNull)
      val n = m("pushes").asInstanceOf[Long]
      converged = n == 0
      stop = converged || checkOnly
      if (!stop) {
        work = n :: work
        frontier = m("frontier").asInstanceOf[Seq[Any]]
      }
    }
    Run(state, work.reverse, converged)
  }
}
