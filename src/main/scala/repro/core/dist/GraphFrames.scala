package repro.core.dist

import org.apache.spark.sql.{Column, DataFrame, Observation, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LeafNode
import org.apache.spark.sql.functions._

/** Relational graph views shared by the distributed push implementations.
  *
  * The graph is the directed-edge relation Ē: `(src, dst, weight)` with
  * both orientations of every undirected edge present. All helpers are
  * pure DataFrame pipelines (Catalyst all the way down).
  */
object GraphFrames {

  /** Materialize a DataFrame and cut BOTH its lineage and Catalyst's
    * statistics propagation.
    *
    * `localCheckpoint` alone is not enough for iterative dataflow: the
    * resulting `LogicalRDD` carries the origin plan's size-in-bytes
    * statistic, which is a BigInt *product* over joins — after k
    * supersteps its bit-length grows exponentially and the driver spends
    * minutes in BigInteger multiplication inside
    * `SizeInBytesOnlyStatsPlanVisitor`. Rebasing through
    * `createDataFrame(rdd, schema)` resets leaf statistics to the session
    * default each step.
    */
  def materialize(df: DataFrame): DataFrame = {
    val ck = df.localCheckpoint(true)
    ck.sparkSession.createDataFrame(ck.rdd, ck.schema)
  }

  /** `df` itself when its plan is a scan of stored rows (a checkpoint, a
    * cached or a local relation), else [[materialize]]d.
    */
  def stored(df: DataFrame): DataFrame = df.queryExecution.optimizedPlan match {
    case _: LeafNode => df
    case _ => materialize(df)
  }

  /** Materialize `df` and cut its lineage, and aggregate `metrics` over
    * its rows in the same pass (an [[Observation]]), so no second job
    * re-evaluates `df`. Returns the materialized rows and the metrics by
    * name.
    *
    * Unlike [[materialize]] this keeps the checkpoint's statistics: it is
    * for plans without joins, whose size estimates add up instead of
    * multiplying, and it saves the round trip through `Row` objects.
    */
  def materializeObserved(df: DataFrame, metric: Column, metrics: Column*)
      : (DataFrame, Map[String, Any]) = {
    val obs = Observation()
    val out = df.observe(obs, metric, metrics: _*).localCheckpoint(true)
    (out, obs.get)
  }

  /** Chained-call syntax for [[materialize]]. */
  implicit class MaterializeOps(private val df: DataFrame) extends AnyVal {
    def materialized: DataFrame = materialize(df)
  }

  /** Weighted degrees d(u) and neighborhood sizes n(u):
    * `(node, deg, nbrs)`. Nodes with no edges are absent (d = 0).
    */
  def degreesDF(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("node"))
      .agg(sum("weight").as("deg"), count(lit(1)).as("nbrs"))

  /** Theorem 2 thresholds as an edge-level column:
    * `(src, dst, weight, theta)` with θ_e = ε·√w_e / Σ√w.
    */
  def withL1Theta(edges: DataFrame, eps: Double): DataFrame = {
    val total = edges.agg(sum(sqrt(col("weight")))).head().getDouble(0)
    edges.withColumn("theta", lit(eps) * sqrt(col("weight")) / lit(total))
  }

  /** Theorem 3 thresholds: θ_⟨u,v⟩ = r_max·d(v)·√A_uv / Σ_{x∈N(v)} √A_xv.
    * The per-destination aggregate is computed relationally and joined
    * back onto the edge relation.
    */
  def withRmaxTheta(edges: DataFrame, rmax: Double): DataFrame = {
    val perDst = edges.groupBy(col("dst").as("node"))
      .agg(sum(sqrt(col("weight"))).as("sumSqrt"), sum("weight").as("ddst"))
    edges.join(perDst, edges("dst") === perDst("node"))
      .withColumn("theta",
        lit(rmax) * col("ddst") * sqrt(col("weight")) / col("sumSqrt"))
      .select(col("src"), col("dst"), col("weight"), col("theta"))
  }

  /** The initial node-income (or residue) vector e_s over the node set of
    * the degree relation: `(node, value)`.
    */
  def unitVectorDF(spark: SparkSession, degrees: DataFrame, s: Long): DataFrame =
    degrees.select(col("node"),
      when(col("node") === s, 1.0).otherwise(0.0).as("value"))

  /** Collect a (node, value) relation into a dense array of length n. */
  def toDense(df: DataFrame, n: Int, valueCol: String = "value"): Array[Double] = {
    val out = new Array[Double](n)
    df.select(col("node").cast("long"), col(valueCol).cast("double")).collect()
      .foreach(r => out(r.getLong(0).toInt) = r.getDouble(1))
    out
  }
}

/** Result of a distributed SSPPR query.
  *
  * @param pi           (node, pi) relation — the estimated SSPPR vector
  * @param supersteps   bulk-synchronous supersteps executed
  * @param edgeTouches  total edges processed (candidate edges for
  *                     EdgePushDF; Σ n(u) over active nodes for
  *                     LocalPushDF; 2m per iteration for PowerMethodDF)
  * @param perStepWork  edge touches per superstep (work profile)
  * @param converged    false when `maxSupersteps` stopped the query before
  *                     it terminated, so the termination certificate does
  *                     not hold
  */
final case class DistPprResult(
    pi: DataFrame,
    supersteps: Int,
    edgeTouches: Long,
    perStepWork: Seq[Long],
    converged: Boolean = true,
)
