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
//! the scenario, and (optionally) the Verilog bundle. Several scenario
//! files run as one parallel sweep (`TSN_SWEEP_WORKERS` overrides the
//! worker count); reports print in argument order.

use std::fmt::Write as _;
use std::path::Path;
use tsn_builder::{workloads, DeriveOptions, GateMode, TsnBuilder};
use tsn_experiments::json::{self, Json};
use tsn_experiments::limits::{within, MAX_DURATION_US, MAX_HOSTS, MAX_SWITCHES, MAX_TS_COUNT};
use tsn_resource::AllocationPolicy;
use tsn_sim::network::SyncSetup;
use tsn_sim::sweep::{run_sweep, workers_from_env};
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration, TsnError};

#[derive(Debug)]
struct ScenarioFile {
    topology: TopologySpec,
    flows: FlowsSpec,
    options: OptionsSpec,
    run: RunSpec,
}

#[derive(Debug)]
struct TopologySpec {
    /// `ring`, `linear` or `star`.
    kind: String,
    switches: usize,
    hosts: usize,
}

#[derive(Debug)]
struct FlowsSpec {
    ts_count: u32,
    frame_bytes: u32,
    seed: u64,
    rc_mbps: u64,
    be_mbps: u64,
}

#[derive(Debug, Default)]
struct OptionsSpec {
    /// CQF slot in µs; omitted = choose the largest feasible slot.
    slot_us: Option<u64>,
    /// Pin the queue depth (omitted = ITP-derived).
    queue_depth: Option<u32>,
    /// `cqf` (default) or `tas`.
    gate_mode: Option<String>,
    /// Aggregate the switch table per destination.
    aggregate_switch_tbl: bool,
    /// Enable 802.3br frame preemption in the simulation.
    frame_preemption: bool,
}

#[derive(Debug)]
struct RunSpec {
    duration_ms: u64,
    simulate: bool,
    /// Directory to write the Verilog bundle into (omitted = no HDL).
    emit_hdl: Option<String>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            duration_ms: 100,
            simulate: true,
            emit_hdl: None,
        }
    }
}

/// Rejects members outside `allowed` — the hand-rolled equivalent of
/// serde's `deny_unknown_fields`, so a typo fails loudly instead of
/// silently using a default.
fn check_fields(what: &str, value: &Json, allowed: &[&str]) -> Result<(), String> {
    for key in value.keys() {
        if !allowed.contains(&key) {
            return Err(format!(
                "{what}: unknown field {key:?} (allowed: {allowed:?})"
            ));
        }
    }
    Ok(())
}

fn req_u64(what: &str, value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: {key:?} must be a non-negative integer"))
}

fn opt_u64(what: &str, value: &Json, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{what}: {key:?} must be a non-negative integer")),
    }
}

/// A required integer no larger than `max`.
fn bounded(what: &str, value: &Json, key: &str, max: u64) -> Result<u64, String> {
    within(key, req_u64(what, value, key)?, max).map_err(|e| format!("{what}: {e}"))
}

fn opt_u32(what: &str, value: &Json, key: &str) -> Result<Option<u32>, String> {
    opt_u64(what, value, key)?
        .map(|v| within(key, v, u32::MAX.into()).map(|v| v as u32))
        .transpose()
        .map_err(|e| format!("{what}: {e}"))
}

fn opt_bool(what: &str, value: &Json, key: &str) -> Result<Option<bool>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("{what}: {key:?} must be a boolean")),
    }
}

fn parse_scenario(text: &str) -> Result<ScenarioFile, String> {
    let root = json::parse(text)?;
    check_fields("scenario", &root, &["topology", "flows", "options", "run"])?;

    let topo = root
        .get("topology")
        .ok_or("scenario: missing \"topology\"")?;
    check_fields("topology", topo, &["kind", "switches", "hosts"])?;
    let topology = TopologySpec {
        kind: topo
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("topology: \"kind\" must be a string")?
            .to_owned(),
        switches: bounded("topology", topo, "switches", MAX_SWITCHES)? as usize,
        hosts: bounded("topology", topo, "hosts", MAX_HOSTS)? as usize,
    };

    let fl = root.get("flows").ok_or("scenario: missing \"flows\"")?;
    check_fields(
        "flows",
        fl,
        &["ts_count", "frame_bytes", "seed", "rc_mbps", "be_mbps"],
    )?;
    let flows = FlowsSpec {
        ts_count: bounded("flows", fl, "ts_count", MAX_TS_COUNT.into())? as u32,
        frame_bytes: opt_u32("flows", fl, "frame_bytes")?.unwrap_or(64),
        seed: opt_u64("flows", fl, "seed")?.unwrap_or(42),
        rc_mbps: opt_u64("flows", fl, "rc_mbps")?.unwrap_or(0),
        be_mbps: opt_u64("flows", fl, "be_mbps")?.unwrap_or(0),
    };

    let mut options = OptionsSpec::default();
    if let Some(opts) = root.get("options") {
        check_fields(
            "options",
            opts,
            &[
                "slot_us",
                "queue_depth",
                "gate_mode",
                "aggregate_switch_tbl",
                "frame_preemption",
            ],
        )?;
        options.slot_us = opt_u64("options", opts, "slot_us")?
            .map(|us| within("slot_us", us, MAX_DURATION_US).map_err(|e| format!("options: {e}")))
            .transpose()?;
        options.queue_depth = opt_u32("options", opts, "queue_depth")?;
        options.gate_mode = match opts.get("gate_mode") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("options: \"gate_mode\" must be a string")?
                    .to_owned(),
            ),
        };
        options.aggregate_switch_tbl =
            opt_bool("options", opts, "aggregate_switch_tbl")?.unwrap_or(false);
        options.frame_preemption = opt_bool("options", opts, "frame_preemption")?.unwrap_or(false);
    }

    let mut run = RunSpec::default();
    if let Some(r) = root.get("run") {
        check_fields("run", r, &["duration_ms", "simulate", "emit_hdl"])?;
        run.duration_ms = opt_u64("run", r, "duration_ms")?.unwrap_or(100);
        within("duration_ms", run.duration_ms, MAX_DURATION_US / 1000)
            .map_err(|e| format!("run: {e}"))?;
        run.simulate = opt_bool("run", r, "simulate")?.unwrap_or(true);
        run.emit_hdl = match r.get("emit_hdl") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("run: \"emit_hdl\" must be a string")?
                    .to_owned(),
            ),
        };
    }

    Ok(ScenarioFile {
        topology,
        flows,
        options,
        run,
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
    match args.first().map(String::as_str) {
        Some("--sample") => {
            let path = Path::new("scenarios/sample.json");
            std::fs::create_dir_all("scenarios").expect("can create scenarios/");
            std::fs::write(path, sample_json().pretty()).expect("can write the sample");
            println!("wrote {}", path.display());
        }
        Some(_) => {
            // Every path on the command line is one sweep entry; reports
            // print in argument order once all scenarios finish.
            let results = run_sweep(&args, workers_from_env(), |_idx, path| {
                run_scenario(path).map_err(|e| TsnError::invalid_parameter("scenario", e))
            });
            let mut failed = false;
            for (path, result) in args.iter().zip(results) {
                match result {
                    Ok((text, lost_frames)) => {
                        if args.len() > 1 {
                            println!("==== {path} ====");
                        }
                        print!("{text}");
                        if lost_frames {
                            eprintln!(
                                "warning: {path} lost TS frames — resources are under-provisioned"
                            );
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
        None => {
            eprintln!("usage: customize <scenario.json>... | customize --sample");
            std::process::exit(2);
        }
    }
}

/// Runs one scenario file; returns its printed report and whether the
/// simulation lost TS frames.
fn run_scenario(path: &str) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario = parse_scenario(&text).map_err(|e| format!("bad scenario file: {e}"))?;

    let topology = match scenario.topology.kind.as_str() {
        "ring" => presets::ring(scenario.topology.switches, scenario.topology.hosts),
        "linear" => presets::linear(scenario.topology.switches, scenario.topology.hosts),
        "star" => presets::star(scenario.topology.switches, scenario.topology.hosts),
        other => {
            return Err(format!(
                "unknown topology kind {other:?} (ring|linear|star)"
            ))
        }
    }
    .map_err(|e| format!("topology: {e}"))?;

    let mut flows = workloads::ts_flows_sized(
        &topology,
        scenario.flows.ts_count,
        scenario.flows.frame_bytes,
        scenario.flows.seed,
    )
    .map_err(|e| format!("flows: {e}"))?;
    flows.extend(
        workloads::background_flows(
            &topology,
            DataRate::mbps(scenario.flows.rc_mbps),
            DataRate::mbps(scenario.flows.be_mbps),
            1_000_000,
        )
        .map_err(|e| format!("background: {e}"))?,
    );

    let mut options = DeriveOptions::automatic();
    options.slot = scenario.options.slot_us.map(SimDuration::from_micros);
    options.queue_depth_override = scenario.options.queue_depth;
    options.aggregate_switch_tbl = scenario.options.aggregate_switch_tbl;
    options.gate_mode = match scenario.options.gate_mode.as_deref() {
        None | Some("cqf") => GateMode::Cqf,
        Some("tas") => GateMode::Tas,
        Some(other) => return Err(format!("unknown gate_mode {other:?} (cqf|tas)")),
    };

    let customization = TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))
        .map_err(|e| format!("requirements: {e}"))?
        .derive(&options)
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
    if scenario.run.simulate {
        let preemption = scenario.options.frame_preemption;
        let report = customization
            .synthesize_network_configured(
                SimDuration::from_millis(scenario.run.duration_ms),
                SyncSetup::default(),
                |config| config.frame_preemption = preemption,
            )
            .map_err(|e| format!("synthesis: {e}"))?
            .run();
        if preemption {
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
            scenario.run.duration_ms
        )
        .expect("string write");
        lost_frames = report.ts_lost() > 0;
    }

    if let Some(dir) = scenario.run.emit_hdl {
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
