//! End-to-end simulation benchmarks: the runs behind Fig. 2 and
//! Fig. 7, scaled down to bench-friendly durations (10 ms of traffic).
//!
//! These measure *simulator throughput*; the QoS numbers themselves come
//! from the `tsn-experiments` binaries. Besides printing the usual
//! result lines, this bench writes `BENCH_2.json` at the repo root with
//! each case's median next to the tracked pre-calendar-queue baseline,
//! so the perf trajectory of the event core is machine-readable.
//!
//! The `sim_multi` rows run the same serial loop on larger multi-switch
//! topologies (a 12-switch ring and an 8-child star) with fully derived
//! resources, so the geomean also covers many-switch event mixes.

use std::collections::HashMap;
use std::hint::black_box;
use tsn_bench::{BenchResult, Runner};
use tsn_builder::{itp, AppRequirements, CqfPlan, Strategy};
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_topology::presets;
use tsn_types::{DataRate, FlowMap, FlowSet, SimDuration};

/// Median ns/iter measured at commit b8cca7c (BinaryHeap event queue,
/// poll-based port wakeups) with `TSN_BENCH_MS=2000` — the pre-overhaul
/// baseline every later run is compared against. The two `sim_multi`
/// rows postdate that commit: their baselines are the serial-loop
/// medians pinned when those scenarios were first benched (same budget,
/// on a 1-CPU reference machine).
const BASELINE_NS: [(&str, f64); 9] = [
    ("sim_fig7/ts_flows/32", 178_620.0),
    ("sim_fig7/ts_flows/128", 616_120.0),
    ("sim_fig2/bg_mbps/100", 735_880.0),
    ("sim_fig2/bg_mbps/400", 2_210_000.0),
    ("sim_build/network_build_512_flows", 653_640.0),
    ("sim_preemption/enabled/false", 1_960_000.0),
    ("sim_preemption/enabled/true", 133_480_000.0),
    ("sim_multi/ring12", 479_140.0),
    ("sim_multi/star8", 458_380.0),
];

/// Plans injection offsets the way the real pipeline does, so the bench
/// scenarios are lossless (ITP is part of the system under test).
fn plan_offsets(topo: &tsn_topology::Topology, flows: &FlowSet) -> FlowMap<SimDuration> {
    let req = AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))
        .expect("valid requirements");
    let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
        .expect("slot feasible");
    itp::plan(&req, &plan, Strategy::GreedyLeastLoaded)
        .expect("itp plans")
        .offsets
}

fn sim_config() -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(10);
    config.drain = SimDuration::from_millis(5);
    config.sync = SyncSetup::Perfect;
    config
}

fn ring_flows(ts: u32, bg_mbps: u64) -> (tsn_topology::Topology, FlowSet) {
    let topo = presets::ring(6, 3).expect("topology builds");
    let mut flows =
        tsn_builder::workloads::iec60802_ts_flows(&topo, ts, 42).expect("workload builds");
    if bg_mbps > 0 {
        flows.extend(
            tsn_builder::workloads::background_flows(
                &topo,
                DataRate::mbps(bg_mbps),
                DataRate::mbps(bg_mbps),
                10_000,
            )
            .expect("workload builds"),
        );
    }
    (topo, flows)
}

/// Serializes the results as `BENCH_2.json` next to the workspace root
/// (hand-rolled JSON: the workspace builds offline, so no serde).
fn write_bench_json(results: &[BenchResult], budget_ms: u64) {
    let baselines: HashMap<&str, f64> = BASELINE_NS.iter().copied().collect();
    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for r in results {
        let baseline = baselines.get(r.name.as_str()).copied();
        let speedup = baseline.map(|b| b / r.median_ns);
        if let Some(s) = speedup {
            speedups.push(s);
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"baseline_median_ns\": {}, \"speedup_vs_baseline\": {}}}",
            r.name,
            r.median_ns,
            r.min_ns,
            baseline.map_or("null".into(), |b| format!("{b:.1}")),
            speedup.map_or("null".into(), |s| format!("{s:.3}")),
        ));
    }
    let geomean = if speedups.is_empty() {
        "null".to_owned()
    } else {
        let g = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
        format!("{g:.3}")
    };
    let json = format!(
        "{{\n  \"bench\": \"simulation\",\n  \"baseline_commit\": \"b8cca7c\",\n  \
         \"baseline_budget_ms\": 2000,\n  \"budget_ms\": {budget_ms},\n  \
         \"geomean_speedup\": {geomean},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_2.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (geomean speedup {geomean}x vs baseline)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The multi-switch scenarios. Resources, slot and injection offsets
/// come from the full derivation pipeline (the star hub needs more ports
/// than the paper's ring column provisions).
#[allow(clippy::type_complexity)]
fn multi_scenarios() -> Vec<(
    &'static str,
    tsn_topology::Topology,
    FlowSet,
    SimConfig,
    FlowMap<SimDuration>,
)> {
    let mut scenarios = Vec::new();
    for (label, topo, ts) in [
        ("ring12", presets::ring(12, 6).expect("topology builds"), 96),
        ("star8", presets::star(8, 8).expect("topology builds"), 64),
    ] {
        let flows =
            tsn_builder::workloads::iec60802_ts_flows(&topo, ts, 42).expect("workload builds");
        let req = AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))
            .expect("valid requirements");
        let derived = tsn_builder::derive::derive_parameters(
            &req,
            &tsn_builder::derive::DeriveOptions::paper(),
        )
        .expect("derivation succeeds");
        let mut config = sim_config();
        config.slot = derived.cqf.slot;
        config.resources = derived.resources;
        config.aggregate_switch_tbl = derived.aggregate_switch_tbl;
        scenarios.push((label, topo, flows, config, derived.itp.offsets));
    }
    scenarios
}

fn main() {
    let runner = Runner::from_env();
    let mut results: Vec<BenchResult> = Vec::new();

    // Fig. 7(a)-shaped run: TS flows over the ring, quiet network.
    for ts in [32u32, 128] {
        let (topo, flows) = ring_flows(ts, 0);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(runner.bench(&format!("sim_fig7/ts_flows/{ts}"), || {
            let report = Network::build(topo.clone(), flows.clone(), &offsets, sim_config())
                .expect("network builds")
                .run();
            assert_eq!(report.ts_lost(), 0);
            black_box(report.events_processed)
        }));
    }

    // Fig. 2 / Fig. 7(d)-shaped run: TS flows under RC+BE background.
    for bg in [100u64, 400] {
        let (topo, flows) = ring_flows(64, bg);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(runner.bench(&format!("sim_fig2/bg_mbps/{bg}"), || {
            let report = Network::build(topo.clone(), flows.clone(), &offsets, sim_config())
                .expect("network builds")
                .run();
            black_box(report.events_processed)
        }));
    }

    // Table I-shaped run: build cost of the whole network (table
    // programming dominates at scale).
    {
        let (topo, flows) = ring_flows(512, 0);
        results.extend(runner.bench("sim_build/network_build_512_flows", || {
            Network::build(topo.clone(), flows.clone(), &FlowMap::new(), sim_config())
                .expect("network builds")
        }));
    }

    // Preemption machinery cost: the same loaded run with 802.3br on/off.
    for preemption in [false, true] {
        let (topo, flows) = ring_flows(64, 300);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(
            runner.bench(&format!("sim_preemption/enabled/{preemption}"), || {
                let mut config = sim_config();
                config.frame_preemption = preemption;
                let report = Network::build(topo.clone(), flows.clone(), &offsets, config)
                    .expect("network builds")
                    .run();
                black_box(report.events_processed)
            }),
        );
    }

    // Many-switch serial runs with derived resources.
    for (label, topo, flows, config, offsets) in multi_scenarios() {
        results.extend(runner.bench(&format!("sim_multi/{label}"), || {
            let report = Network::build(topo.clone(), flows.clone(), &offsets, config.clone())
                .expect("network builds")
                .run();
            assert_eq!(report.ts_lost(), 0);
            black_box(report.events_processed)
        }));
    }

    if !results.is_empty() {
        write_bench_json(&results, runner.budget_ms());
    }
}
