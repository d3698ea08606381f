package repro.core

import repro.graph.WeightedGraph

/** SpeedPPR (§3, Wu et al.): FORA ([[ForaSeq.pushThenWalk]]) with
  * PowForPush's scan switch in the push phase, which makes that phase
  * cheaper at small thresholds, where SpeedPPR overtakes FORA.
  */
object SpeedPprSeq {

  def compute(g: WeightedGraph, s: Int, alpha: Double, delta: Double,
              epsR: Double = 0.5, pf: Double = 1e-6, seed: Long = 42): PprResult =
    ForaSeq.pushThenWalk(g, s, alpha, delta, epsR, pf, seed,
      Some(PowForPushSeq.DefaultScanSwitchFrac))
}
