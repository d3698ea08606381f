package perfbench

/** `nodes` and `rmax` replace seq-deep's graph size and threshold; they
  * regenerate the baseline table of the README and are not part of the
  * benchmark's runs.
  */
final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         smoke: Boolean, workDir: String,
                         nodes: Option[Int] = None, rmax: Option[Double] = None)

/** Runs one workload in this JVM and prints its result as the last line
  * of standard output, prefixed with [[Main.ResultPrefix]].
  *
  * Usage: perfbench.Main --workload NAME --seed N --seconds S --trace 0|1
  *        --work-dir DIR [--smoke] [--nodes N --rmax R]
  */
object Main {
  val Workloads = Seq("seq-shallow", "seq-deep", "seq-l1", "dist-motif")
  val ResultPrefix = "PERFBENCH_RESULT "

  def parse(args: Array[String]): Options = {
    def optional(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i >= 0 && i + 1 < args.length) Some(args(i + 1)) else None
    }
    def value(flag: String): String = optional(flag).getOrElse(sys.error(s"missing $flag"))
    val o = Options(value("--workload"), value("--seed").toLong, value("--seconds").toInt,
      value("--trace") match {
        case "1" => true
        case "0" => false
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
      args.contains("--smoke"), value("--work-dir"),
      optional("--nodes").map(_.toInt), optional("--rmax").map(_.toDouble))
    require(Workloads.contains(o.workload), s"unknown workload ${o.workload}")
    require(o.workload == "seq-deep" || (o.nodes.isEmpty && o.rmax.isEmpty),
      "--nodes and --rmax apply to seq-deep only")
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val rec = new Recorder(o.trace)
    val result = if (o.workload == "dist-motif") {
      val spark = DistBench.session(o.workDir)
      try {
        val accounting = if (o.trace) {
          val a = new SparkAccounting
          spark.sparkContext.addSparkListener(a)
          Some(a)
        } else None
        Runner.run(DistBench.workload(spark, o.smoke, accounting), o, rec)
      } finally spark.stop()
    } else Runner.run(SeqBench.workload(o), o, rec)

    if (o.trace)
      rec.writeTrace(java.nio.file.Paths.get(o.workDir, s"trace-${o.workload}-seed${o.seed}.jsonl"))
    result.metrics.foreach(m => Console.err.println(f"[perfbench] ${m.name}%-40s ${m.value}%14.4f ${m.unit}"))
    println(ResultPrefix + toJson(result))
  }

  def toJson(r: RunResult): String = {
    val metrics = r.metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
      s""""metrics": {${metrics.mkString(", ")}}}"""
  }
}
