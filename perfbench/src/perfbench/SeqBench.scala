package perfbench

import repro.core._
import repro.graph.WeightedGraph
import repro.graphgen.GraphGen
import Runner.Alpha

/** The sequential workloads. Each runs on a Chung–Lu power-law graph
  * (average degree 12, exponent 2.3) with Pareto(1.1) edge weights, the
  * heavy-tailed weight law under which EdgePush should do the least work.
  */
object SeqBench {
  private val AvgDeg = 12.0
  private val Beta = 2.3
  private val ParetoTail = 1.1
  /** Relative error ε_r of the sampling methods, as in the paper. */
  private val EpsR = 0.5
  /** Slack for rounding when a quantity is compared with the bound the
    * algorithm compared it with in a different arithmetic form.
    */
  private val RelRounding = 1e-12
  private val MassRounding = 1e-9

  /** The generated undirected edge list (u, v, A_uv). The graph is
    * fixed, like a dataset, with the generators' default seeds: under a
    * tail this heavy, a few edges carry much of ‖A‖₁, so graphs drawn
    * from different seeds differ in work by whole factors. The benchmark
    * seed draws the query sources.
    */
  def edgeList(n: Int): Seq[(Int, Int, Double)] =
    GraphGen.undirectedEdges(GraphGen.withParetoWeights(
      GraphGen.chungLu(n, AvgDeg, Beta), ParetoTail))

  def workload(o: Options): Workload = workload(o.workload, o.smoke, o.nodes, o.rmax)

  private def workload(name: String, smoke: Boolean, nodes: Option[Int],
                       rmaxOverride: Option[Double]): Workload = name match {
    // §6.1 mix: per-query Θ(m) set-up of EdgePush dominates at r_max = 1e-5.
    case "seq-shallow" =>
      new SeqWorkload(if (smoke) 5000 else 100000, 64, 16, { (rec, g) =>
        val rmax = 1e-5
        val delta = 1e-2
        val pf = 1.0 / g.n
        val theta = rec.time("thresholds.build")(Thresholds.rmax(g, rmax))._1
        val walks = MonteCarloSeq.walkCount(delta, EpsR, pf)
        val sampled = Guarantee.Relative(EpsR, delta)
        Seq(
          edgePush(g, theta, None, Guarantee.NormalizedAdditive(rmax)),
          localPush(g, rmax, Guarantee.NormalizedAdditive(rmax)),
          Method("montecarlo", Role.Other, sampled, (s, _) =>
            walkOutcome(MonteCarloSeq.compute(g, s, Alpha, walks, seed = 42 + s))),
          Method("fora", Role.Other, sampled, (s, _) =>
            walkOutcome(ForaSeq.compute(g, s, Alpha, delta, EpsR, pf, seed = 42 + s))),
          Method("speedppr", Role.Other, sampled, (s, _) =>
            walkOutcome(SpeedPprSeq.compute(g, s, Alpha, delta, EpsR, pf, seed = 42 + s))),
        )
      })
    // Deep pushes: per-touch cost dominates at r_max = 1e-7.
    case "seq-deep" =>
      new SeqWorkload(nodes.getOrElse(if (smoke) 2000 else 20000), 64, 8, { (rec, g) =>
        val rmax = rmaxOverride.getOrElse(1e-7)
        val theta = rec.time("thresholds.build")(Thresholds.rmax(g, rmax))._1
        Seq(
          edgePush(g, theta, None, Guarantee.NormalizedAdditive(rmax)),
          localPush(g, rmax, Guarantee.NormalizedAdditive(rmax)),
        )
      })
    // §6.2 ℓ1 regime: EdgePush switches to scans after 2m pushes, as in
    // Harness.l1Sweep; PowForPush switches at its default frontier size.
    // On the 20K-node graph: at 100K nodes a query scans ~30 MB of arrays
    // for ~600 ms, and a run held too few queries to be steady.
    case "seq-l1" =>
      new SeqWorkload(if (smoke) 2000 else 20000, 32, 8, { (rec, g) =>
        val eps = 0.01
        val (theta, lpTheta) = rec.time("thresholds.build")(
          (Thresholds.l1(g, eps), Thresholds.localPushL1Theta(g, eps)))._1
        Seq(
          edgePush(g, theta, Some(1.0), Guarantee.L1(eps)),
          Method("powforpush", Role.Node, Guarantee.L1(eps), { (s, _) =>
            val res = PowForPushSeq.compute(g, s, Alpha, lpTheta)
            new Outcome(res.pi, res.edgeTouches, res.pushOps, 0L, 0L,
              l1Mass(res.pi, eps))
          }),
        )
      })
  }

  private final class SeqWorkload(n: Int, val poolSize: Int, val warmupSources: Int,
                                  mix: (Recorder, WeightedGraph) => Seq[Method])
      extends Workload {
    private val edges = edgeList(n)
    val setupRepeats = 7
    val referenceSources = 4
    val checkEveryQuery = false

    def setup(rec: Recorder): Prepared = {
      val g = rec.time("graph.build")(WeightedGraph.fromUndirectedEdges(n, edges))._1
      Prepared(g, mix(rec, g), Nil)
    }

    /** Zero-push probes: thresholds no residue can reach, so the query
      * does only its fixed per-query work.
      */
    override def probes(p: Prepared): Seq[Method] = {
      val g = p.graph
      val unreachable = 2.0 // > (1−α)·q·A_e/d(u) for any q ≤ 1
      p.methods.map(_.layer).collect {
        case "edgepush" => edgePush(g, Array.fill(g.directedEdgeCount)(unreachable), None,
          Guarantee.L1(1.0))
        case "localpush" => localPush(g, unreachable / g.deg.filter(_ > 0).min,
          Guarantee.L1(1.0))
      }
    }
  }

  private def edgePush(g: WeightedGraph, theta: Array[Double], scanSwitch: Option[Double],
                       guarantee: Guarantee): Method =
    Method("edgepush", Role.Edge, guarantee, { (s, _) =>
      val (res, q, expense) = EdgePushSeq.run(g, s, Alpha, theta, scanSwitch)
      new Outcome(res.pi, res.edgeTouches, res.pushOps, 0L, 0L,
        edgePushProperties(g, theta, res.pi, q, expense))
    })

  private def localPush(g: WeightedGraph, theta: Double, guarantee: Guarantee): Method =
    Method("localpush", Role.Node, guarantee, { (s, _) =>
      val (res, r) = LocalPushSeq.run(g, s, Alpha, theta)
      new Outcome(res.pi, res.edgeTouches, res.pushOps, 0L, 0L,
        localPushProperties(g, theta, res.pi, r))
    })

  private def walkOutcome(res: PprResult): Outcome =
    new Outcome(res.pi, res.edgeTouches, res.pushOps, res.walkSteps, 0L, unitMass(res.pi))

  /** Algorithm 2's termination condition R_e < θ_e on every edge, with
    * R_e = (1−α)·q(u)·A_e/d(u) − Q_e from the terminal income q and
    * expense Q, and mass conservation Σπ̂ + Σ_e R_e = 1 (a node without
    * edges keeps its share (1−α)·q(u)).
    */
  private def edgePushProperties(g: WeightedGraph, theta: Array[Double], pi: Array[Double],
                                 q: Array[Double], expense: Array[Double]): Option[String] = {
    var residue = 0.0
    var u = 0
    while (u < g.n) {
      if (g.deg(u) > 0) {
        val scale = (1 - Alpha) * q(u) / g.deg(u)
        var e = g.indptr(u)
        while (e < g.indptr(u + 1)) {
          val r = scale * g.wgt(e) - expense(e)
          if (r - theta(e) >= RelRounding * (expense(e) + theta(e)))
            return Some(f"edge $e of node $u: R_e = $r%.6e ≥ θ_e = ${theta(e)}%.6e")
          residue += r
          e += 1
        }
      } else residue += (1 - Alpha) * q(u)
      u += 1
    }
    conserved(pi.sum + residue)
  }

  /** r(u) < d(u)·θ on every node with edges, and Σπ̂ + Σr = 1. */
  private def localPushProperties(g: WeightedGraph, theta: Double, pi: Array[Double],
                                  r: Array[Double]): Option[String] =
    (0 until g.n).find(u => g.deg(u) > 0 && r(u) >= g.deg(u) * theta)
      .map(u => f"node $u: r(u) = ${r(u)}%.6e ≥ d(u)·θ = ${g.deg(u) * theta}%.6e")
      .orElse(conserved(pi.sum + r.sum))

  /** Fact 1's budget seen from π̂ alone: every residue ends below
    * d(u)·θ with θ = ε/‖A‖₁, so 1 − ε < Σπ̂ ≤ 1.
    */
  private def l1Mass(pi: Array[Double], eps: Double): Option[String] = {
    val mass = pi.sum
    if (mass <= 1 - eps - MassRounding || mass > 1 + MassRounding)
      Some(f"Σπ̂ = $mass%.12f outside (1 − ε, 1] for ε = $eps")
    else nonNegative(pi)
  }

  /** Every walk deposits its whole share, so Σπ̂ = 1. */
  private def unitMass(pi: Array[Double]): Option[String] =
    conserved(pi.sum).orElse(nonNegative(pi))

  private def conserved(total: Double): Option[String] =
    if (math.abs(total - 1) > MassRounding) Some(f"mass not conserved: Σ = $total%.12f")
    else None

  private def nonNegative(pi: Array[Double]): Option[String] =
    pi.indices.find(pi(_) < 0).map(u => s"π̂($u) = ${pi(u)} < 0")
}
