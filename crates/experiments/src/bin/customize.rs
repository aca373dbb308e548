//! `customize` — the TSN-Builder command line: scenario file in,
//! customized switch out.
//!
//! ```text
//! cargo run --release -p tsn-experiments --bin customize -- scenarios/ring_demo.json
//! cargo run --release -p tsn-experiments --bin customize -- a.json b.json c.json
//! cargo run --release -p tsn-experiments --bin customize -- --sample   # write a template
//! ```
//!
//! The scenario file captures exactly what Section II.A says is known in
//! advance — topology, flows, precision — and the tool answers with the
//! Table II parameters, the Table III-style BRAM report, a simulation of
//! the scenario, and (optionally) the Verilog bundle. Its `topology` is
//! the one `dse` queries carry, read by the same
//! [`tsn_experiments::json::read_topology`]: a named preset (`{"kind":
//! "ring", "switches": 6, "hosts": 3}`) or inline node and link lists
//! (`{"switches": [...], "hosts": [...], "links": [[a, b], ...]}`).
//! Several scenario files run as one parallel sweep (`TSN_SWEEP_WORKERS`
//! overrides the worker count); reports print in argument order. Any
//! other flag than a lone `--sample` prints the usage line and exits 2.

use std::fmt::Write as _;
use std::path::Path;
use tsn_builder::{workloads, DeriveOptions, GateMode, TsnBuilder};
use tsn_experiments::json::{self, read_topology, Fields, Json};
use tsn_experiments::limits::{workers_from_env, MAX_DURATION_US, MAX_RATE_MBPS, MAX_TS_COUNT};
use tsn_resource::AllocationPolicy;
use tsn_sim::network::SimConfig;
use tsn_sim::sweep::run_sweep;
use tsn_topology::presets::TopologySpec;
use tsn_types::{DataRate, SimDuration};

/// A parsed scenario file: the topology and flows Section II.A says are
/// known in advance, the derivation options, and what to run.
#[derive(Debug)]
struct ScenarioFile {
    topology: TopologySpec,
    ts_count: u32,
    frame_bytes: u32,
    seed: u64,
    rc_mbps: u64,
    be_mbps: u64,
    options: DeriveOptions,
    /// Enable 802.3br frame preemption in the simulation.
    frame_preemption: bool,
    duration_ms: u64,
    simulate: bool,
    /// Directory to write the Verilog bundle into (omitted = no HDL).
    emit_hdl: Option<String>,
}

/// Reads a scenario file through the strict field reader shared with
/// the `dse` batches: unknown fields are errors, `null` on an optional
/// field means absent, sizes are bounded by [`tsn_experiments::limits`].
fn parse_scenario(text: &str) -> Result<ScenarioFile, String> {
    let root = json::parse(text)?;
    let root = Fields::new(&root, "scenario", &["topology", "flows", "options", "run"])?;
    let flows = root.object(
        "flows",
        "flows",
        &["ts_count", "frame_bytes", "seed", "rc_mbps", "be_mbps"],
    )?;
    let opts = root.object_or_empty(
        "options",
        "options",
        &[
            "slot_us",
            "queue_depth",
            "gate_mode",
            "aggregate_switch_tbl",
            "frame_preemption",
        ],
    )?;
    let run = root.object_or_empty("run", "run", &["duration_ms", "simulate", "emit_hdl"])?;

    // Omitted options: the largest feasible slot, the ITP-derived queue
    // depth, CQF gating and a per-flow switch table.
    let mut options = DeriveOptions::automatic();
    options.slot = opts
        .opt_within("slot_us", MAX_DURATION_US)?
        .map(SimDuration::from_micros);
    options.queue_depth_override = opts.opt("queue_depth")?;
    options.aggregate_switch_tbl = opts.opt("aggregate_switch_tbl")?.unwrap_or(false);
    options.gate_mode = match opts.opt::<String>("gate_mode")?.as_deref() {
        None | Some("cqf") => GateMode::Cqf,
        Some("tas") => GateMode::Tas,
        Some(other) => return Err(opts.error(format!("unknown gate_mode {other:?} (cqf|tas)"))),
    };

    Ok(ScenarioFile {
        topology: read_topology(&root, "topology")?,
        ts_count: flows.within("ts_count", MAX_TS_COUNT.into())? as u32,
        frame_bytes: flows.opt("frame_bytes")?.unwrap_or(64),
        seed: flows.opt("seed")?.unwrap_or(42),
        rc_mbps: flows.opt_within("rc_mbps", MAX_RATE_MBPS)?.unwrap_or(0),
        be_mbps: flows.opt_within("be_mbps", MAX_RATE_MBPS)?.unwrap_or(0),
        options,
        frame_preemption: opts.opt("frame_preemption")?.unwrap_or(false),
        duration_ms: run
            .opt_within("duration_ms", MAX_DURATION_US / 1000)?
            .unwrap_or(100),
        simulate: run.opt("simulate")?.unwrap_or(true),
        emit_hdl: run.opt("emit_hdl")?,
    })
}

fn sample_json() -> Json {
    Json::obj([
        (
            "topology",
            Json::obj([
                ("kind", Json::Str("ring".into())),
                ("switches", Json::Num(6.0)),
                ("hosts", Json::Num(3.0)),
            ]),
        ),
        (
            "flows",
            Json::obj([
                ("ts_count", Json::Num(256.0)),
                ("frame_bytes", Json::Num(64.0)),
                ("seed", Json::Num(42.0)),
                ("rc_mbps", Json::Num(100.0)),
                ("be_mbps", Json::Num(300.0)),
            ]),
        ),
        (
            "options",
            Json::obj([
                ("slot_us", Json::Num(65.0)),
                ("queue_depth", Json::Null),
                ("gate_mode", Json::Str("cqf".into())),
                ("aggregate_switch_tbl", Json::Bool(false)),
                ("frame_preemption", Json::Bool(false)),
            ]),
        ),
        (
            "run",
            Json::obj([
                ("duration_ms", Json::Num(100.0)),
                ("simulate", Json::Bool(true)),
                ("emit_hdl", Json::Null),
            ]),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--sample"] {
        let path = Path::new("scenarios/sample.json");
        let written = std::fs::create_dir_all("scenarios")
            .and_then(|()| std::fs::write(path, sample_json().pretty()));
        if let Err(e) = written {
            eprintln!("customize: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
        return;
    }
    if args.is_empty() || args.iter().any(|arg| arg.starts_with('-')) {
        eprintln!("usage: customize <scenario.json>... | customize --sample");
        std::process::exit(2);
    }
    // Every path on the command line is one sweep entry; reports print
    // in argument order once all scenarios finish. A scenario's own
    // error is a sweep success, so its message reaches stderr with its
    // one context; only panics come back as sweep errors.
    let results = run_sweep(&args, workers_from_env(), |_idx, path| {
        Ok(run_scenario(path))
    });
    let mut failed = false;
    for (path, result) in args.iter().zip(results) {
        match result.map_err(|e| e.to_string()).and_then(|r| r) {
            Ok((text, lost_frames)) => {
                if args.len() > 1 {
                    println!("==== {path} ====");
                }
                print!("{text}");
                if lost_frames {
                    eprintln!("warning: {path} lost TS frames — resources are under-provisioned");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Runs one scenario file; returns its printed report and whether the
/// simulation lost TS frames.
fn run_scenario(path: &str) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = parse_scenario(&text).map_err(|e| format!("bad scenario file: {e}"))?;

    let topology = scenario
        .topology
        .build()
        .map_err(|e| format!("topology: {e}"))?;

    let mut flows = workloads::ts_flows_sized(
        &topology,
        scenario.ts_count,
        scenario.frame_bytes,
        scenario.seed,
    )
    .map_err(|e| format!("flows: {e}"))?;
    flows.extend(
        workloads::background_flows(
            &topology,
            DataRate::mbps(scenario.rc_mbps),
            DataRate::mbps(scenario.be_mbps),
            workloads::BACKGROUND_FRAME_BYTES,
            1_000_000,
        )
        .map_err(|e| format!("background: {e}"))?,
    );

    let customization = TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))
        .map_err(|e| format!("requirements: {e}"))?
        .derive(&scenario.options)
        .map_err(|e| format!("derivation: {e}"))?;

    let mut out = String::new();
    let derived = customization.derived();
    writeln!(out, "== derived customization ==").expect("string write");
    writeln!(
        out,
        "slot {} | gate_size {} | queue depth {} | buffers {} | {} TSN port(s) | peak occupancy {}",
        derived.cqf.slot,
        derived.resources.gate_size(),
        derived.resources.queue_depth(),
        derived.resources.buffer_num(),
        derived.resources.port_num(),
        derived.itp.max_occupancy,
    )
    .expect("string write");
    writeln!(
        out,
        "\n{}",
        customization.usage_report(AllocationPolicy::PaperAccounting)
    )
    .expect("string write");
    writeln!(
        out,
        "\n{}",
        tsn_resource::ResourceView::of(
            &customization.derived().resources,
            AllocationPolicy::PaperAccounting
        )
    )
    .expect("string write");
    writeln!(
        out,
        "\nsavings vs BCM53154: {:.2}%",
        customization.savings_vs_cots(AllocationPolicy::PaperAccounting)
    )
    .expect("string write");

    let mut lost_frames = false;
    if scenario.simulate {
        let base = SimConfig {
            duration: SimDuration::from_millis(scenario.duration_ms),
            frame_preemption: scenario.frame_preemption,
            ..SimConfig::paper_defaults()
        };
        let report = derived
            .template(customization.requirements(), base)
            .and_then(|template| template.instantiate())
            .map_err(|e| format!("synthesis: {e}"))?
            .run();
        if scenario.frame_preemption {
            writeln!(
                out,
                "(frame preemption on: {} preemptions)",
                report.preemptions
            )
            .expect("string write");
        }
        writeln!(
            out,
            "\n== simulation ({}ms) ==\n{report}",
            scenario.duration_ms
        )
        .expect("string write");
        lost_frames = report.ts_lost() > 0;
    }

    if let Some(dir) = scenario.emit_hdl {
        let bundle = customization
            .generate_hdl()
            .map_err(|e| format!("hdl: {e}"))?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for (name, src) in bundle.files() {
            std::fs::write(Path::new(&dir).join(name), src)
                .map_err(|e| format!("cannot write HDL: {e}"))?;
        }
        writeln!(
            out,
            "\nwrote {} Verilog files to {dir}/",
            bundle.files().len()
        )
        .expect("string write");
    }
    Ok((out, lost_frames))
}
