package repro.core.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** LocalPush as bulk-synchronous DataFrame dataflow.
  *
  * One superstep pushes *every* active node (r(u) ≥ d(u)·θ) at once:
  * reserves gain α·r(u), and each active node's entire residue is joined
  * against ALL of its edges — the node-granular cost Σ_{active u} n(u)
  * that EdgePushDF undercuts on unbalanced graphs. Termination (no active
  * node) implies exactly Algorithm 1's guarantee: every residue is below
  * d(u)·θ, so Fact 1/Fact 2 error bounds carry over verbatim.
  *
  * It runs on EdgePushDF's superstep shape ([[FrontierPush]]). The state
  * holds, per edge that has sent mass, what it has sent in total
  * (`expense`), and per reached node its income q(u) = [u=s] + Σ_{e into u}
  * expense_e and the residue it has pushed in total (`spent`). So
  * r(u) = q(u) − spent(u) and π̂(u) = α·spent(u). Only a node whose income
  * grew in the last superstep can be active (θ > 0), so a superstep reads
  * only that frontier's edges; its work Σ n(u) over active nodes comes
  * from the same pass.
  */
object LocalPushDF {

  def compute(spark: SparkSession, edges: DataFrame, s: Long, alpha: Double,
              theta: Double, maxSupersteps: Int = 500): DistPprResult = {
    require(theta > 0, s"theta must be positive, got $theta")
    val r = col("q") - col("spent")
    val active = coalesce(r >= col("dsrc") * theta, lit(false))
    val run = FrontierPush.run(edges.select("src", "dst", "weight"), s, maxSupersteps,
      Seq("spent"))(Seq(
      (col("expense") + when(active, lit(1 - alpha) * r * col("weight") / col("dsrc"))
        .otherwise(0.0)).as("expense"),
      (col("spent") + when(active, r).otherwise(0.0)).as("spent")), active)
    val pi = run.nodes((lit(alpha) * col("spent")).as("pi"))
    DistPprResult(pi, run.perStepWork.length, run.perStepWork.sum, run.perStepWork,
      run.converged)
  }
}
