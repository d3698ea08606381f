package repro.core.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** EdgePush as bulk-synchronous *edge-granular* DataFrame dataflow — the
  * paper's contribution rendered as distributed message passing over the
  * edge relation.
  *
  * Edge state is the paper's Q_uv (`expense`), kept only for edges that
  * have pushed; a node's income q(u) = [u=s] + Σ_{e into u} Q_e is summed
  * from it. One superstep:
  *
  *   1. take the frontier (the nodes whose q grew in the last superstep)
  *      with its out-edges and their Q_e, and compute the implicit residue
  *      R_e = (1−α)·q(src)·w/d(src) − Q_e;
  *   2. the *candidate* edges are exactly { e | R_e ≥ θ_e } (Equation 7) —
  *      a filter, not a per-node expansion: non-candidate edges of an
  *      active node do not push, which is where the (1−α)·cos²φ work
  *      saving materializes. Off the frontier q(src) and Q_e are unchanged,
  *      so every edge there keeps R_e < θ_e (thresholds are positive);
  *   3. candidates push against the previous superstep's q: Q_e += R_e,
  *      and their destinations are the next frontier.
  *
  * A superstep is one materialized pass with one shuffle, which also
  * counts the candidates ([[FrontierPush]]); π̂ = α·q is read from the
  * state's node rows. Termination (no candidate edge) gives every
  * R_e < θ_e, i.e. exactly Algorithm 2's termination condition, so Lemma
  * 4/5 error bounds hold. Work per superstep = number of candidate edges,
  * versus LocalPushDF's Σ n(u) over active nodes.
  */
object EdgePushDF {

  /** @param thetaEdges edge relation with per-edge thresholds:
    *                   `(src, dst, weight, theta)` — from
    *                   [[GraphFrames.withL1Theta]] or
    *                   [[GraphFrames.withRmaxTheta]]; θ_e > 0. It is
    *                   scanned once per superstep; unless it is already
    *                   stored (materialized or cached) it is materialized
    *                   once per query.
    */
  def compute(spark: SparkSession, thetaEdges: DataFrame, s: Long, alpha: Double,
              maxSupersteps: Int = 500): DistPprResult = {
    val residue = lit(1 - alpha) * col("q") * col("weight") / col("dsrc") - col("expense")
    val isCand = coalesce(residue >= col("theta"), lit(false))
    val run = FrontierPush.run(thetaEdges.select("src", "dst", "weight", "theta"), s,
      maxSupersteps, Nil)(
      Seq((col("expense") + when(isCand, residue).otherwise(0.0)).as("expense")), isCand)
    val pi = run.nodes((lit(alpha) * col("q")).as("pi"))
    DistPprResult(pi, run.perStepWork.length, run.perStepWork.sum, run.perStepWork,
      run.converged)
  }
}
