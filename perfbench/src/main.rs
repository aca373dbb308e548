//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <plant-100k|dse-batch|customize> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the spans are written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.

use std::process::ExitCode;

use perfbench::{
    customize, dse, median_f64, plant, quantile, Layer, RunConfig, Tracer, WorkloadRun,
};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("answers_per_s", "1/s"),
    ("answer_bram36", "blocks"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload that does not
/// call a layer reports 0 for that layer's metrics.
const PER_LAYER: [(&str, &str); 40] = [
    ("builder.plant_generate_ms", "ms"),
    ("builder.derive_ms", "ms"),
    ("builder.synthesize_ms", "ms"),
    ("resource.usage_report_us", "us"),
    ("resource.paper_kb", "KB"),
    ("hdl.generate_ms", "ms"),
    ("hdl.parse_ms", "ms"),
    ("hdl.lint_ms", "ms"),
    ("hdl.cost_check_ms", "ms"),
    ("hdl.lines", "lines"),
    ("sim.template_new_ms", "ms"),
    ("sim.route_cache_hit_rate", "ratio"),
    ("sim.reconfigure_patch_ms", "ms"),
    ("sim.reconfigure_replay_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_ts_frame", "events/frame"),
    ("sim.kicks_suppressed_ratio", "ratio"),
    ("sim.queue_high_water", "frames"),
    ("switch.frames_received", "frames"),
    ("switch.frames_transmitted", "frames"),
    ("dse.plan_ms", "ms"),
    ("dse.answer_ms", "ms"),
    ("dse.simulate_ms", "ms"),
    ("dse.sims", "count"),
    ("dse.pruned", "count"),
    ("dse.candidates_hit_rate", "ratio"),
    ("dse.answers_hit_rate", "ratio"),
    ("self.builder_ms", "ms"),
    ("self.resource_ms", "ms"),
    ("self.hdl_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.dse_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.traced_ops", "count"),
    ("trace.untraced_ops", "count"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms_p50", "ms"),
];

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn end_to_end(run: &WorkloadRun) -> Vec<f64> {
    let ns = &run.measured.untraced_ns;
    let total_s = ns.iter().sum::<u64>() as f64 / 1e9;
    vec![
        median_f64(&run.setup_s),
        quantile(ns, 0.5) / 1e6,
        quantile(ns, run.tail_quantile) / 1e6,
        run.answers_per_op * ns.len() as f64 / total_s,
        run.answer_bram36,
        run.peak_rss_mib,
    ]
}

fn per_layer(run: &WorkloadRun, tracer: &Tracer) -> Vec<f64> {
    let traced = run.measured.traced_ns.len();
    let per_op_ms = |ns: u64| ns as f64 / traced.max(1) as f64 / 1e6;
    let self_ns = tracer.layer_self_ns();
    let spans = tracer.spans().iter().filter(|s| s.op >= 1).count();
    let traced_p50 = quantile(&run.measured.traced_ns, 0.5);
    let untraced_p50 = quantile(&run.measured.untraced_ns, 0.5);
    let mut values: Vec<(&str, f64)> = run.layer.clone();
    for (layer, ns) in Layer::ALL.iter().zip(self_ns) {
        let name = match layer {
            Layer::Builder => "self.builder_ms",
            Layer::Resource => "self.resource_ms",
            Layer::Hdl => "self.hdl_ms",
            Layer::Sim => "self.sim_ms",
            Layer::Dse => "self.dse_ms",
            Layer::Bench => "self.bench_ms",
        };
        values.push((name, per_op_ms(ns)));
    }
    values.extend([
        ("trace.traced_ops", traced as f64),
        ("trace.untraced_ops", run.measured.untraced_ns.len() as f64),
        ("trace.spans_per_op", spans as f64 / traced.max(1) as f64),
        (
            "trace.overhead_pct",
            perfbench::ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
        ),
        ("trace.op_ms_p50", traced_p50 / 1e6),
    ]);
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let mut tracer = Tracer::new(cfg.trace);
    let result = match args.workload.as_str() {
        "plant-100k" => plant::run(cfg, plant::PLANT_FLOWS, &mut tracer),
        "dse-batch" => dse::run(cfg, &mut tracer),
        "customize" => customize::run(cfg, customize::POOL, &mut tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut attempted = run.measured.attempted;
    let mut failed = run.measured.failed;
    println!(
        "workload {} seed {}: {} untraced + {} traced ops timed, {} checked, {} failed",
        args.workload,
        cfg.seed,
        run.measured.untraced_ns.len(),
        run.measured.traced_ns.len(),
        run.measured.attempted,
        run.measured.failed,
    );
    if let Some(e) = &run.measured.first_error {
        println!("  first failure: {e}");
    }
    for (name, outcome) in &run.run_checks {
        attempted += 1;
        match outcome {
            Ok(()) => println!("  check {name}: ok"),
            Err(e) => {
                failed += 1;
                println!("  check {name}: FAILED: {e}");
            }
        }
    }
    println!(
        "  failed_ops_ratio = {} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );

    let (table, values): (&[(&str, &str)], Vec<f64>) = if cfg.trace {
        (&PER_LAYER, per_layer(&run, &tracer))
    } else {
        (&END_TO_END, end_to_end(&run))
    };
    let mut metrics = Vec::with_capacity(table.len());
    for ((name, unit), value) in table.iter().zip(&values) {
        println!("  {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        ));
    }
    if cfg.trace {
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}}}",
            args.workload, cfg.seed, cfg.seconds
        );
        let path = format!("{SPANS_DIR}/spans-{}-{}.jsonl", args.workload, cfg.seed);
        match std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl(&header)))
        {
            Ok(()) => println!("  spans: {} written to {path}", tracer.spans().len()),
            Err(e) => println!("  spans: could not write {path}: {e}"),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// gives; non-finite values (which JSON cannot carry) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}
