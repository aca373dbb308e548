//! The paper's artifacts as one table: every table and figure of the
//! evaluation, and the extensions built on it, as a named entry of
//! [`ARTIFACTS`] that prints its paper-style text and returns its
//! results record. The `paper` binary runs them and writes each record
//! to `results/<name>.json`; `verify/outputs/` holds the committed text
//! and record of every entry, and `tests/outputs.rs` requires both to
//! stay byte-identical.
//!
//! The multi-point artifacts run their sweep in parallel, each through
//! its own [`SweepPlanner`], so an artifact's output never depends on
//! which others ran before it in the same process. Set
//! `TSN_SWEEP_WORKERS=1` to force a serial run (the output is identical
//! either way).

use crate::json::{Json, ToJson};
use crate::limits::workers_from_env;
use crate::util::{expect_outcomes, requirements};
use std::sync::Arc;
use tsn_builder::workloads::{self, BACKGROUND_FRAME_BYTES};
use tsn_builder::{
    cqf, itp, AppRequirements, CqfPlan, DeriveOptions, PerSwitchConfig, Scenario, ScenarioOutcome,
    SweepPlanner, TsnBuilder,
};
use tsn_resource::{baseline, AllocationPolicy, ResourceConfig, UsageReport};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_sim::sweep::run_sweep;
use tsn_sim::SimReport;
use tsn_switch::time_sync::{ClockModel, SyncConfig, SyncDomain};
use tsn_topology::{presets, LinkDirection, Topology};
use tsn_types::{DataRate, FlowSet, NodeId, SimDuration, SimTime, TrafficClass, TsnResult};

/// One paper artifact.
pub struct Artifact {
    /// What `paper` takes on its command line, and the stem of
    /// `results/<name>.json`.
    pub name: &'static str,
    /// The paper result the artifact reproduces.
    pub reproduces: &'static str,
    /// Prints the artifact's text and returns its results record.
    pub run: fn() -> Json,
}

/// Every artifact, in the order `paper` runs them when given no name.
pub const ARTIFACTS: [Artifact; 12] = [
    Artifact {
        name: "table1",
        reproduces: "Table I: two queue/buffer configurations, same QoS with 540 Kb less BRAM",
        run: table1,
    },
    Artifact {
        name: "fig2",
        reproduces: "Fig. 2: TS latency flat under 0-900 Mbps BE/RC background, both Table I cases",
        run: fig2,
    },
    Artifact {
        name: "table3",
        reproduces: "Table III: BRAM 10818 Kb commercial vs star/linear/ring -46.59/-63.56/-80.53%",
        run: table3,
    },
    Artifact {
        name: "fig7a",
        reproduces: "Fig. 7(a): latency vs hop count, within Eq. (1)'s bounds",
        run: fig7a,
    },
    Artifact {
        name: "fig7b",
        reproduces: "Fig. 7(b): latency vs packet size, a slight increase",
        run: fig7b,
    },
    Artifact {
        name: "fig7c",
        reproduces: "Fig. 7(c): latency vs slot length, linear in the slot",
        run: fig7c,
    },
    Artifact {
        name: "fig7d",
        reproduces: "Fig. 7(d): latency unaffected by RC+BE background load, no loss",
        run: fig7d,
    },
    Artifact {
        name: "sync_precision",
        reproduces: "§IV.A: gPTP precision below 50 ns across the 6-switch chain",
        run: sync_precision,
    },
    Artifact {
        name: "itp_ablation",
        reproduces: "§V: injection-time planning strategies vs queue depth and BRAM",
        run: itp_ablation,
    },
    Artifact {
        name: "aggregation",
        reproduces: "§III.C guideline 1: switch-table aggregation by path, same QoS",
        run: aggregation,
    },
    Artifact {
        name: "network_totals",
        reproduces: "extension: network-wide BRAM, COTS vs uniform vs per-switch sizing",
        run: network_totals,
    },
    Artifact {
        name: "preemption",
        reproduces: "extension: 802.3br frame preemption under the Fig. 7(d) workload",
        run: preemption,
    },
];

/// One measured point of a latency figure.
struct QosPoint {
    /// X-axis label (hops, bytes, slot µs, background Mbps, …).
    x: u64,
    /// TS latency, µs: mean, jitter (mean per-flow std-dev), min, max,
    /// and the streaming log2-histogram quantile estimates.
    mean_us: f64,
    jitter_us: f64,
    min_us: f64,
    max_us: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// TS frames lost and injected.
    loss: u64,
    injected: u64,
}

impl QosPoint {
    /// The TS QoS numbers of a finished run.
    fn from_report(x: u64, report: &SimReport) -> Self {
        let ts = report.ts_latency();
        QosPoint {
            x,
            mean_us: ts.mean_us(),
            jitter_us: report
                .analyzer
                .class_mean_flow_jitter_ns(TrafficClass::TimeSensitive)
                / 1000.0,
            min_us: ts.min().map_or(0.0, |d| d.as_micros_f64()),
            max_us: ts.max().map_or(0.0, |d| d.as_micros_f64()),
            p50_us: ts.p50().map_or(0.0, |d| d.as_micros_f64()),
            p99_us: ts.p99().map_or(0.0, |d| d.as_micros_f64()),
            p999_us: ts.p999().map_or(0.0, |d| d.as_micros_f64()),
            loss: report.ts_lost(),
            injected: report.ts_injected(),
        }
    }
}

impl ToJson for QosPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("x", self.x.to_json()),
            ("mean_us", self.mean_us.to_json()),
            ("jitter_us", self.jitter_us.to_json()),
            ("min_us", self.min_us.to_json()),
            ("max_us", self.max_us.to_json()),
            ("p50_us", self.p50_us.to_json()),
            ("p99_us", self.p99_us.to_json()),
            ("p999_us", self.p999_us.to_json()),
            ("loss", self.loss.to_json()),
            ("injected", self.injected.to_json()),
        ])
    }
}

/// One QoS point per outcome, labelled by `xs` in order.
fn qos_points(xs: impl IntoIterator<Item = u64>, outcomes: &[ScenarioOutcome]) -> Vec<QosPoint> {
    xs.into_iter()
        .zip(outcomes)
        .map(|(x, outcome)| QosPoint::from_report(x, &outcome.report))
        .collect()
}

/// Prints a QoS series as an aligned table.
fn print_series(title: &str, x_label: &str, points: &[QosPoint]) {
    println!("\n== {title} ==");
    println!(
        "{x_label:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "avg(us)", "jitter(us)", "min(us)", "max(us)", "p50(us)", "p99(us)", "loss", "injected"
    );
    for p in points {
        println!(
            "{:>12} {:>12.1} {:>12.2} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8} {:>10}",
            p.x, p.mean_us, p.jitter_us, p.min_us, p.max_us, p.p50_us, p.p99_us, p.loss, p.injected
        );
    }
}

/// Largest minus smallest of `values`.
fn spread(values: impl Iterator<Item = f64> + Clone) -> f64 {
    values.clone().fold(f64::MIN, f64::max) - values.fold(f64::MAX, f64::min)
}

/// TS frames lost over a series.
fn total_loss(points: &[QosPoint]) -> u64 {
    points.iter().map(|p| p.loss).sum()
}

/// Runs `scenarios` through `planner` on the sweep workers; outcomes
/// keep the input order, and a failed scenario is a broken artifact.
fn sweep(what: &str, planner: &SweepPlanner, scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
    expect_outcomes(what, planner.run(scenarios, workers_from_env()))
}

/// Runs `f` over `items` on the sweep workers, in input order; a failed
/// item is a broken artifact.
fn each<I: Sync, T: Send>(
    what: &str,
    items: &[I],
    f: impl Fn(&I) -> TsnResult<T> + Sync,
) -> Vec<T> {
    expect_outcomes(
        what,
        run_sweep(items, workers_from_env(), |_, item| f(item)),
    )
}

/// The figures' network and workload: a unidirectional ring of
/// `switches` switches with a *tester* host on switch 0 and one
/// *analyzer* host on switch `analyzer_switch` (switch 0 too in Fig.
/// 7(a)'s 1-hop case), and `ts` TS flows of `bytes`-byte frames every
/// 8 ms from tester to analyzer. The tester and the analyzer are the
/// topology's first and second host, the pair
/// [`workloads::background_flows`] loads.
fn fixed_path(switches: usize, analyzer_switch: usize, ts: u32, bytes: u32) -> (Topology, FlowSet) {
    let build = || -> TsnResult<(Topology, FlowSet)> {
        let mut topo = Topology::new();
        let sw: Vec<NodeId> = (0..switches)
            .map(|i| topo.add_switch(format!("sw{i}")))
            .collect();
        for i in 0..switches {
            topo.connect_with(
                sw[i],
                sw[(i + 1) % switches],
                DataRate::gbps(1),
                SimDuration::from_nanos(50),
                LinkDirection::AToB,
            )?;
        }
        let tester = topo.add_host("tester");
        topo.connect(tester, sw[0], DataRate::gbps(1))?;
        let analyzer = topo.add_host("analyzer0");
        topo.connect(analyzer, sw[analyzer_switch], DataRate::gbps(1))?;
        let period = SimDuration::from_millis(8);
        let flows = workloads::ts_flows_fixed_path(ts, tester, analyzer, bytes, period)?;
        Ok((topo, flows))
    };
    build().expect("experiment network builds")
}

/// The figures' measurement config: 100 ms of traffic, gPTP sync.
fn figure_config(slot: SimDuration, resources: ResourceConfig) -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.slot = slot;
    config.resources = resources;
    config.duration = SimDuration::from_millis(100);
    config.sync = SyncSetup::default();
    config
}

/// Table I (+ §II.A motivation): two queue/buffer configurations at the
/// same QoS.
///
/// Three chained switches with one enabled TSN port each; 1024 TS flows
/// of 64 B injected by the tester. Case 1 provisions depth 16 / 128
/// buffers, Case 2 depth 12 / 96 buffers — 540 Kb less BRAM. Both must
/// show identical latency/jitter and zero loss. Both cases run on one
/// network and slot, so the planner computes the CQF/ITP plan once.
fn table1() -> Json {
    // Three switches in a chain (ring of 3, traffic one way), tester on
    // sw0, analyzer on sw2 — "three TSN switches with one enabled port
    // connected with each other".
    let (topo, flows) = fixed_path(3, 2, 1024, 64);
    let shared = requirements(topo, flows);
    let scenarios: Vec<Scenario> = [
        ("Case 1", baseline::table1_case1()),
        ("Case 2", baseline::table1_case2()),
    ]
    .into_iter()
    .map(|(name, resources)| {
        Scenario::explicit(
            name,
            Arc::clone(&shared),
            figure_config(cqf::PAPER_SLOT, resources),
        )
    })
    .collect();
    let planner = SweepPlanner::new();
    let outcomes = sweep("table1", &planner, &scenarios);
    assert!(
        planner.planning_hits() > 0,
        "the two cases share one planning input"
    );

    println!("TABLE I — CONFIGURATION OF QUEUE AND PACKET BUFFER");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "", "PktNum/Queue", "PacketBufNum", "Q+B BRAM", "avg(us)", "jitter(us)", "max(us)", "loss"
    );
    let policy = AllocationPolicy::PaperAccounting;
    let mut cases = Vec::new();
    let mut results = Vec::new();
    for outcome in &outcomes {
        let resources = &outcome.resources;
        let kb = (resources.queue_bits(policy) + resources.buffer_bits(policy)) as f64 / 1024.0;
        let qos = QosPoint::from_report(u64::from(resources.queue_depth()), &outcome.report);
        println!(
            "{:<8} {:>14} {:>14} {:>11}Kb {:>12.1} {:>12.2} {:>12.1} {:>8}",
            outcome.label,
            resources.queue_depth(),
            resources.buffer_num(),
            kb,
            qos.mean_us,
            qos.jitter_us,
            qos.max_us,
            qos.loss
        );
        results.push(Json::obj([
            ("name", outcome.label.to_json()),
            ("queue_depth", resources.queue_depth().to_json()),
            ("buffer_num", resources.buffer_num().to_json()),
            ("queue_buffer_kb", kb.to_json()),
            ("qos", qos.to_json()),
        ]));
        cases.push((kb, qos.mean_us));
    }
    let saved = cases[0].0 - cases[1].0;
    println!("\nBRAM saved by Case 2: {saved}Kb (paper: 540Kb)");
    let delta = (cases[0].1 - cases[1].1).abs();
    println!(
        "QoS delta between cases: {delta:.2}us mean latency ({}) — paper: identical QoS",
        if delta < 5.0 { "same" } else { "DIFFERENT" }
    );
    Json::Arr(results)
}

/// Fig. 2: TS latency under (a) best-effort and (b) rate-constrained
/// background traffic, for both Table I resource cases.
///
/// The paper's claim: "the latency and jitter of TS flows with the
/// highest priority are very stable despite the interference of other
/// flows" — the four series must all be flat over 0–900 Mbps. All 40
/// points (2 cases × 2 classes × 10 loads) run as one sweep; the two
/// cases share each load point's network and slot, so the planner
/// serves the second case's plans from cache.
fn fig2() -> Json {
    let cases = [
        ("Case 1", baseline::table1_case1()),
        ("Case 2", baseline::table1_case2()),
    ];
    let classes = [TrafficClass::BestEffort, TrafficClass::RateConstrained];
    let loads: Vec<u64> = (0..=900).step_by(100).collect();

    let mut networks = Vec::new();
    for &class in &classes {
        for &mbps in &loads {
            // 1023 TS + at most 1 RC filter entry = the 1024-entry table.
            let (topo, ts) = fixed_path(3, 2, 1023, 64);
            let (rc, be) = match class {
                TrafficClass::RateConstrained => (DataRate::mbps(mbps), DataRate::ZERO),
                _ => (DataRate::ZERO, DataRate::mbps(mbps)),
            };
            // Background runs from the first host to the second: it
            // shares the tester/analyzer path.
            let bg = workloads::background_flows(&topo, rc, be, BACKGROUND_FRAME_BYTES, 5000)
                .expect("workload builds");
            networks.push((class, mbps, requirements(topo, workloads::merge(ts, bg))));
        }
    }
    let mut scenarios = Vec::new();
    for (case, resources) in &cases {
        for (class, mbps, network) in &networks {
            scenarios.push(Scenario::explicit(
                format!("{case}/{}/bg={mbps}", class.label()),
                Arc::clone(network),
                figure_config(cqf::PAPER_SLOT, resources.clone()),
            ));
        }
    }

    let planner = SweepPlanner::new();
    let outcomes = sweep("fig2", &planner, &scenarios);
    println!(
        "[{} scenarios, {} plans computed, {} served from cache]",
        scenarios.len(),
        planner.planning_misses(),
        planner.planning_hits()
    );

    let series = cases
        .iter()
        .flat_map(|(case, _)| classes.map(|class| (case, class)));
    let mut results = Vec::new();
    let mut flatness = Vec::new();
    for ((case, class), outcomes) in series.zip(outcomes.chunks(loads.len())) {
        let points = qos_points(loads.iter().copied(), outcomes);
        print_series(
            &format!("Fig. 2 — {case}, {} as background", class.label()),
            "bg Mbps",
            &points,
        );
        let background = format!("{} background", class.label());
        let spread = spread(points.iter().map(|p| p.mean_us));
        let loss = total_loss(&points);
        flatness.push(format!(
            "{case} / {background}: mean-latency spread over the sweep = {spread:.2}us, total TS loss = {loss} ({})",
            if spread < 15.0 && loss == 0 {
                "stable, as in the paper"
            } else {
                "UNSTABLE"
            }
        ));
        results.push(Json::obj([
            ("case", case.to_json()),
            ("background", background.to_json()),
            ("points", points.to_json()),
        ]));
    }
    println!();
    for line in &flatness {
        println!("{line}");
    }
    Json::Arr(results)
}

/// A Table III customized column: 1024-entry tables, 12-deep queues and
/// 96 buffers on each of `ports` enabled ports.
fn customized(ports: u32) -> ResourceConfig {
    let mut cfg = ResourceConfig::new();
    cfg.set_switch_tbl(1024, 0)
        .expect("valid")
        .set_class_tbl(1024)
        .expect("valid")
        .set_meter_tbl(1024)
        .expect("valid")
        .set_gate_tbl(2, 8, ports)
        .expect("valid")
        .set_cbs_tbl(3, 3, ports)
        .expect("valid")
        .set_queues(12, 8, ports)
        .expect("valid")
        .set_buffers(96, ports)
        .expect("valid");
    cfg
}

/// Table III: comparison of resource usage under different scenarios.
///
/// Prints the commercial (BCM53154) column and the three customized
/// columns (star 3 ports, linear 2 ports, ring 1 port) with their BRAM
/// totals and reduction percentages, then cross-checks that the full
/// derivation pipeline (requirements → parameters) lands on the same
/// columns.
fn table3() -> Json {
    let policy = AllocationPolicy::PaperAccounting;
    let columns = [
        ("Commercial (4 ports)", baseline::bcm53154()),
        ("Star (3 ports)", customized(3)),
        ("Linear (2 ports)", customized(2)),
        ("Ring (1 port)", customized(1)),
    ];
    let reports: Vec<UsageReport> = columns
        .iter()
        .map(|(_, config)| UsageReport::of(config, policy))
        .collect();
    let cots = &reports[0];

    println!("TABLE III — COMPARISON OF RESOURCE USAGE UNDER DIFFERENT SCENARIOS");
    print!("{:<12}", "Resource");
    for (scenario, _) in &columns {
        print!(" {scenario:<24}");
    }
    println!();
    for (i, row) in cots.rows().iter().enumerate() {
        print!("{:<12}", row.name);
        for report in &reports {
            let row = &report.rows()[i];
            print!(" {:<24}", format!("{} -> {}Kb", row.parameters, row.kb()));
        }
        println!();
    }
    print!("{:<12}", "Total");
    for report in &reports {
        let reduction = report.reduction_vs(cots);
        if reduction.abs() < f64::EPSILON {
            print!(" {:<24}", format!("{}Kb", report.total_kb()));
        } else {
            print!(
                " {:<24}",
                format!("{}Kb (-{reduction:.2}%)", report.total_kb())
            );
        }
    }
    println!();

    println!("\nPaper reference: 10818Kb | 5778Kb (-46.59%) | 3942Kb (-63.56%) | 2106Kb (-80.53%)");

    // Cross-check: the derivation pipeline reproduces the same columns
    // from raw requirements.
    println!("\nDerivation cross-check (requirements -> parameters):");
    let cross_checks = [
        ("star", presets::star(3, 3).expect("builds"), 3u32, 5778.0),
        ("linear", presets::linear(6, 2).expect("builds"), 2, 3942.0),
        ("ring", presets::ring(6, 3).expect("builds"), 1, 2106.0),
    ];
    let derived = each("table3", &cross_checks, |(_, topology, _, _)| {
        let flows = workloads::iec60802_ts_flows(topology, 1024, 42)?;
        let customization = TsnBuilder::new(topology.clone(), flows, SimDuration::from_nanos(50))?
            .derive(&DeriveOptions::paper())?;
        let report = customization.usage_report(policy);
        Ok((
            customization.derived().resources.port_num(),
            report.total_kb(),
        ))
    });
    for ((derived_ports, total_kb), (name, _, expect_ports, expect_total)) in
        derived.into_iter().zip(&cross_checks)
    {
        println!(
            "  {name:<7} derived port_num={derived_ports} total={total_kb}Kb (expected {expect_total}Kb, {expect_ports} ports) {}",
            if derived_ports == *expect_ports && total_kb == *expect_total {
                "OK"
            } else {
                "MISMATCH"
            }
        );
    }

    Json::Arr(
        columns
            .iter()
            .zip(&reports)
            .map(|((scenario, config), report)| {
                Json::obj([
                    ("scenario", scenario.to_json()),
                    ("ports", config.port_num().to_json()),
                    ("total_kb", report.total_kb().to_json()),
                    ("reduction_pct", report.reduction_vs(cots).to_json()),
                    (
                        "rows",
                        Json::arr(
                            report
                                .rows()
                                .iter()
                                .map(|r| (r.name.as_str(), r.parameters.as_str(), r.kb())),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Fig. 7(a): end-to-end TS latency under different hop counts.
///
/// Ring of 6 switches, slot 65 µs. The flow set traverses 1–4 switches;
/// the paper observes latency growing by about one slot per hop with
/// near-constant jitter, bounded by Eq. (1).
fn fig7a() -> Json {
    let slot = cqf::PAPER_SLOT;
    let hops = 1..=4u64;
    let scenarios: Vec<Scenario> = hops
        .clone()
        .map(|hops| {
            // Analyzer on switch (hops-1): the flow crosses `hops` switches.
            let (topo, flows) = fixed_path(6, (hops - 1) as usize, 1024, 64);
            Scenario::explicit(
                format!("hops={hops}"),
                requirements(topo, flows),
                figure_config(slot, ResourceConfig::new()),
            )
        })
        .collect();
    let points = qos_points(hops, &sweep("fig7a", &SweepPlanner::new(), &scenarios));

    print_series("Fig. 7(a) — latency vs hops (slot 65us)", "hops", &points);

    println!("\nEq. (1) check (gated hops g = hop-1 in this model; see DESIGN.md):");
    for p in &points {
        let (lo, hi) = cqf::latency_bounds(p.x, slot);
        println!(
            "  hops={}: measured [{:.1}, {:.1}]us vs paper bounds [{}, {}] -> {}",
            p.x,
            p.min_us,
            p.max_us,
            lo,
            hi,
            if p.max_us <= hi.as_micros_f64() {
                "within L_max"
            } else {
                "VIOLATION"
            }
        );
    }
    let jspread = spread(points.iter().map(|p| p.jitter_us));
    println!("jitter spread across hop counts: {jspread:.2}us (paper: nearly unchanged)");
    points.to_json()
}

/// Fig. 7(b): end-to-end TS latency under different packet sizes.
///
/// The paper: "The latency increases slightly as the packet size
/// increases … the time for outputting the packet is positively
/// correlated with the packet size."
fn fig7b() -> Json {
    let scenarios: Vec<Scenario> = workloads::FRAME_SIZES
        .iter()
        .map(|&bytes| {
            // 3 hops; fewer flows for the big sizes so one slot (65 us = 5 MTU
            // frames) is never structurally overloaded per phase.
            let (topo, flows) = fixed_path(6, 2, 256, bytes);
            Scenario::explicit(
                format!("{bytes}B"),
                requirements(topo, flows),
                figure_config(cqf::PAPER_SLOT, ResourceConfig::new()),
            )
        })
        .collect();
    let points = qos_points(
        workloads::FRAME_SIZES.map(u64::from),
        &sweep("fig7b", &SweepPlanner::new(), &scenarios),
    );

    print_series(
        "Fig. 7(b) — latency vs packet size (3 hops, slot 65us)",
        "bytes",
        &points,
    );

    let first = points.first().expect("sweep ran").mean_us;
    let last = points.last().expect("sweep ran").mean_us;
    println!(
        "\n64B -> 1500B mean latency growth: {:.1}us (paper: slight increase; \
         one extra MTU serialization per hop is ~12us)",
        last - first
    );
    println!("total TS loss across the sweep: {}", total_loss(&points));
    points.to_json()
}

/// Fig. 7(c): end-to-end TS latency under different time slots.
///
/// The paper: "The average latency and jitter are increased manyfold
/// according to the upper and lower bound in Eq. (1)." Latency must
/// scale linearly with the slot length. Each slot gets its own
/// derivation (larger slots concentrate more frames per phase, so ITP
/// re-derives the queue depth and buffer count — the customization loop
/// in action).
fn fig7c() -> Json {
    const SLOTS_US: [u64; 4] = [33, 65, 130, 195];
    // One network for every slot, validated and routed once.
    let (topo, flows) = fixed_path(6, 2, 1024, 64);
    let shared = requirements(topo, flows);
    let scenarios: Vec<Scenario> = SLOTS_US
        .iter()
        .map(|&slot_us| {
            let slot = SimDuration::from_micros(slot_us);
            let mut options = DeriveOptions::automatic();
            options.slot = Some(slot);
            // The derivation replaces the config's slot and resources.
            Scenario::derived(
                format!("slot={slot_us}us"),
                Arc::clone(&shared),
                options,
                figure_config(slot, ResourceConfig::new()),
            )
        })
        .collect();
    let outcomes = sweep("fig7c", &SweepPlanner::new(), &scenarios);
    let points = qos_points(SLOTS_US, &outcomes);

    print_series(
        "Fig. 7(c) — latency vs slot size (3 hops)",
        "slot us",
        &points,
    );

    println!("\nper-slot derived resources (ITP re-sizing):");
    for (outcome, slot_us) in outcomes.iter().zip(SLOTS_US) {
        println!(
            "  slot {slot_us}us -> queue_depth {}, buffers {}",
            outcome.resources.queue_depth(),
            outcome.resources.buffer_num()
        );
    }
    println!("\nlinearity check (mean latency / slot):");
    for p in &points {
        println!(
            "  slot {}us: mean/slot = {:.2}",
            p.x,
            p.mean_us / p.x as f64
        );
    }
    println!("total TS loss across the sweep: {}", total_loss(&points));
    points.to_json()
}

/// The background loads of Fig. 7(d) and of the preemption extension,
/// Mbps per class.
const LOADS_MBPS: [u64; 5] = [0, 100, 200, 300, 400];

/// Fig. 7(d): end-to-end TS latency under different background flows.
///
/// RC and BE background is injected simultaneously at equal bandwidth
/// (the paper sweeps the load); "there is no affection on the latency
/// and jitter of critical TS flows" and packet loss stays zero.
fn fig7d() -> Json {
    let scenarios: Vec<Scenario> = LOADS_MBPS
        .iter()
        .map(|&mbps| {
            // 1023 TS + 1 RC stream = 1024 classification entries, the
            // paper's table budget (BE takes the PCP fallback).
            let (topo, ts) = fixed_path(6, 2, 1023, 64);
            // RC and BE at the same bandwidth, sharing the TS path.
            let rate = DataRate::mbps(mbps);
            let bg = workloads::background_flows(&topo, rate, rate, BACKGROUND_FRAME_BYTES, 5000)
                .expect("valid background");
            Scenario::explicit(
                format!("bg={mbps}Mbps"),
                requirements(topo, workloads::merge(ts, bg)),
                figure_config(cqf::PAPER_SLOT, ResourceConfig::new()),
            )
        })
        .collect();
    let points = qos_points(
        LOADS_MBPS,
        &sweep("fig7d", &SweepPlanner::new(), &scenarios),
    );

    print_series(
        "Fig. 7(d) — latency vs background load (RC+BE, each at x Mbps, 3 hops)",
        "bg Mbps",
        &points,
    );

    let spread = spread(points.iter().map(|p| p.mean_us));
    println!(
        "\nTS mean-latency spread over the load sweep: {spread:.2}us, TS loss {} \
         (paper: no effect, loss 0)",
        total_loss(&points)
    );
    points.to_json()
}

/// The worst absolute clock error of each of the 6 chained switches
/// over one second, sampled every millisecond after one second of
/// convergence, with drifting oscillators and PHY timestamp noise.
fn sync_errors(interval_ms: u64, noise_ns: f64) -> TsnResult<Vec<f64>> {
    let config = SyncConfig {
        sync_interval: SimDuration::from_millis(interval_ms),
        timestamp_noise_ns: noise_ns,
    };
    let clocks: Vec<ClockModel> = (0..6)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            ClockModel::new(
                sign * (15.0 + 11.0 * i as f64),
                sign * 250_000.0 * (i + 1) as f64,
            )
        })
        .collect();
    let mut domain = SyncDomain::chain(clocks, config, SimDuration::from_nanos(50))?;
    domain.run_until(SimTime::from_millis(1000));
    let mut per_hop = vec![0.0f64; 6];
    for ms in 1000..2000 {
        let t = SimTime::from_millis(ms);
        domain.run_until(t);
        for (worst, node) in per_hop.iter_mut().zip(domain.nodes()) {
            *worst = worst.max(node.error_ns(t).abs());
        }
    }
    Ok(per_hop)
}

/// §IV.A: "The synchronization precision on FPGA is less than 50ns."
///
/// Runs the gPTP domain over the 6-switch chain at four (interval,
/// noise) configurations and reports the worst error between sync
/// rounds (the worst case).
fn sync_precision() -> Json {
    println!("gPTP precision across the 6-switch chain (paper claim: < 50ns)\n");
    println!(
        "{:>12} {:>10} {:>12}  per-hop worst (ns)",
        "interval", "noise", "worst(ns)"
    );
    let configs = [(31u64, 4.0f64), (125, 4.0), (31, 8.0), (125, 8.0)];
    let errors = each("sync_precision", &configs, |&(interval_ms, noise_ns)| {
        sync_errors(interval_ms, noise_ns)
    });
    let mut best = f64::MAX;
    let mut results = Vec::new();
    for (&(interval_ms, noise_ns), per_hop) in configs.iter().zip(errors) {
        let worst = per_hop.iter().copied().fold(0.0, f64::max);
        best = best.min(worst);
        println!(
            "{:>10}ms {:>8}ns {:>12.1}  {}",
            interval_ms,
            noise_ns,
            worst,
            per_hop
                .iter()
                .map(|e| format!("{e:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        results.push(Json::obj([
            ("sync_interval_ms", interval_ms.to_json()),
            ("timestamp_noise_ns", noise_ns.to_json()),
            ("worst_error_ns", worst.to_json()),
            ("per_hop_error_ns", per_hop.to_json()),
        ]));
    }
    println!(
        "\nbest configuration worst-case error: {best:.1}ns ({})",
        if best < 50.0 {
            "meets the paper's <50ns"
        } else {
            "misses 50ns"
        }
    );
    Json::Arr(results)
}

/// Ablation (§V "Selection of resource parameters"): how much of the
/// queue/buffer saving comes from injection-time planning?
///
/// Compares the three offset strategies on the paper's 1024-flow ring
/// workload: the peak slot occupancy each produces is the `queue_depth`
/// (and, times 8 queues, the `buffer_num`) that must be provisioned —
/// plus the BRAM each provisioning costs.
fn itp_ablation() -> Json {
    let topo = presets::ring(6, 3).expect("topology builds");
    let flows = workloads::iec60802_ts_flows(&topo, 1024, 42).expect("workload builds");
    let requirements = requirements(topo, flows);
    let plan =
        CqfPlan::with_slot(&requirements, cqf::PAPER_SLOT, DataRate::gbps(1)).expect("feasible");

    println!("ITP ablation — 1024 TS flows, ring(6), slot 65us\n");
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>14}",
        "strategy", "peak occupancy", "queue depth", "buffers", "queue+buf BRAM"
    );
    let strategies = [
        itp::Strategy::AllZero,
        itp::Strategy::UniformSpread,
        itp::Strategy::GreedyLeastLoaded,
    ];
    let plans = each("itp_ablation", &strategies, |&strategy| {
        let result = itp::plan(&requirements, &plan, strategy)?;
        let depth = result.recommended_queue_depth();
        let mut resources = ResourceConfig::new();
        resources
            .set_queues(depth, 8, 1)?
            .set_buffers(depth * 8, 1)?;
        let policy = AllocationPolicy::PaperAccounting;
        let kb = (resources.queue_bits(policy) + resources.buffer_bits(policy)) as f64 / 1024.0;
        Ok((result.max_occupancy, depth, kb))
    });
    let mut results = Vec::new();
    for (strategy, &(max_occupancy, depth, kb)) in strategies.iter().zip(&plans) {
        let strategy = format!("{strategy:?}");
        let buffers = depth * 8;
        println!("{strategy:<20} {max_occupancy:>14} {depth:>12} {buffers:>12} {kb:>12}Kb");
        results.push(Json::obj([
            ("strategy", strategy.to_json()),
            ("max_occupancy", max_occupancy.to_json()),
            ("queue_depth", depth.to_json()),
            ("buffer_num", buffers.to_json()),
            ("queue_buffer_kb", kb.to_json()),
        ]));
    }
    let (naive, greedy) = (plans[0].2, plans[2].2);
    println!(
        "\ngreedy ITP vs no planning: {:.1}% less queue+buffer BRAM \
         (the mechanism behind Table I's 540Kb saving)",
        (1.0 - greedy / naive) * 100.0
    );
    Json::Arr(results)
}

/// One derive-and-simulate mode of the aggregation ablation.
fn aggregation_scenario(requirements: &Arc<AppRequirements>, aggregate: bool) -> Scenario {
    let mut options = DeriveOptions::automatic();
    options.slot = Some(cqf::PAPER_SLOT);
    options.aggregate_switch_tbl = aggregate;
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(60);
    config.sync = SyncSetup::Perfect;
    Scenario::derived(
        if aggregate {
            "aggregated (per destination)"
        } else {
            "exact (per flow)"
        },
        Arc::clone(requirements),
        options,
        config,
    )
}

/// Ablation (§III.C guideline 1): table aggregation by transmission
/// path.
///
/// "The number of entries for each table is equal to the number of
/// application flows in the worst case. For optimal configurations,
/// some table entries could be aggregated according to the transmission
/// path." — one aggregated any-VLAN entry per *destination* replaces
/// one exact entry per *flow* in the switch table; QoS must be
/// unchanged.
fn aggregation() -> Json {
    println!("Switch-table aggregation ablation — 1024 TS flows, 3 destinations, ring(6)\n");
    println!(
        "{:<30} {:>12} {:>14} {:>10} {:>8} {:>10}",
        "mode", "entries", "switch BRAM", "total", "TS loss", "avg(us)"
    );
    let topo = presets::ring(6, 3).expect("topology builds");
    let flows = workloads::iec60802_ts_flows(&topo, 1024, 42).expect("workload builds");
    // Both modes derive over one network, validated and routed once.
    let shared = requirements(topo, flows);
    let scenarios = [false, true].map(|aggregate| aggregation_scenario(&shared, aggregate));
    let outcomes = sweep("aggregation", &SweepPlanner::new(), &scenarios);
    let mut modes = Vec::new();
    let mut results = Vec::new();
    for outcome in &outcomes {
        let report = UsageReport::of(&outcome.resources, AllocationPolicy::PaperAccounting);
        let entries = outcome.resources.unicast_size();
        let switch_kb = report.row("Switch Tbl").expect("row").kb();
        let total_kb = report.total_kb();
        let lost = outcome.report.ts_lost();
        let mean_us = outcome.report.ts_latency().mean_us();
        println!(
            "{:<30} {entries:>12} {switch_kb:>12}Kb {total_kb:>8}Kb {lost:>8} {mean_us:>10.1}",
            outcome.label
        );
        results.push(Json::obj([
            ("mode", outcome.label.to_json()),
            ("unicast_size", entries.to_json()),
            ("switch_tbl_kb", switch_kb.to_json()),
            ("total_kb", total_kb.to_json()),
            ("ts_lost", lost.to_json()),
            ("mean_us", mean_us.to_json()),
        ]));
        modes.push((switch_kb, lost, mean_us));
    }
    let ((exact_kb, exact_lost, exact_us), (agg_kb, agg_lost, agg_us)) = (modes[0], modes[1]);
    println!(
        "\nswitch-table BRAM saved by aggregation: {}Kb, identical QoS: {}",
        exact_kb - agg_kb,
        exact_lost == 0 && agg_lost == 0 && (exact_us - agg_us).abs() < 1.0
    );
    Json::Arr(results)
}

/// One network_totals row: its printed line and its record.
fn network_row(name: &str, topology: &Topology) -> TsnResult<(String, Json)> {
    let flows = workloads::iec60802_ts_flows(topology, 1024, 42)?;
    let requirements = AppRequirements::new(topology.clone(), flows, SimDuration::from_nanos(50))?;
    let cfg = PerSwitchConfig::derive(&requirements, &DeriveOptions::paper())?;
    let policy = AllocationPolicy::PaperAccounting;
    let kb = |bits: u64| bits as f64 / 1024.0;
    let switches = cfg.switch_count();
    let cots = baseline::bcm53154().total_bits(policy) * switches as u64;
    let per_switch = cfg.network_total_bits(policy);
    let (cots_kb, uniform_kb, per_switch_kb) =
        (kb(cots), kb(cfg.uniform_total_bits(policy)), kb(per_switch));
    let vs_cots = (1.0 - per_switch as f64 / cots as f64) * 100.0;
    let vs_uniform = cfg.saving_vs_uniform(policy);
    let line = format!(
        "{name:<16} {switches:>9} {cots_kb:>10}Kb {uniform_kb:>10}Kb {per_switch_kb:>10}Kb \
         {vs_cots:>11.2}% {vs_uniform:>13.2}%"
    );
    let record = Json::obj([
        ("scenario", name.to_json()),
        ("switches", switches.to_json()),
        ("cots_kb", cots_kb.to_json()),
        ("uniform_kb", uniform_kb.to_json()),
        ("per_switch_kb", per_switch_kb.to_json()),
        ("saving_vs_cots_pct", vs_cots.to_json()),
        ("extra_saving_vs_uniform_pct", vs_uniform.to_json()),
    ]);
    Ok((line, record))
}

/// Extension: network-wide BRAM under three provisioning granularities.
///
/// The paper's Table III prices *one switch*; a deployment buys N of
/// them. Three ways to provision a whole network: COTS (every switch is
/// a BCM53154); uniform customization (the paper: every switch gets the
/// worst-case column of its scenario); per-switch customization (this
/// repository's extension: each switch is sized by its *own*
/// enabled-port count).
fn network_totals() -> Json {
    println!("Network-wide BRAM: COTS vs uniform customization vs per-switch customization\n");
    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "scenario", "switches", "COTS", "uniform", "per-switch", "vs COTS", "vs uniform"
    );
    let inputs = [
        ("star(3)", presets::star(3, 3).expect("builds")),
        ("linear(6)", presets::linear(6, 2).expect("builds")),
        ("ring(6)", presets::ring(6, 3).expect("builds")),
    ];
    let rows = each("network_totals", &inputs, |(name, topology)| {
        network_row(name, topology)
    });
    for (line, _) in &rows {
        println!("{line}");
    }
    println!(
        "\nTake-away: heterogeneous sizing buys extra savings exactly where the paper's \
         uniform column over-provisions (star children, linear edge switches); \
         symmetric rings gain nothing, as expected."
    );
    Json::Arr(rows.into_iter().map(|(_, record)| record).collect())
}

/// Extension: frame preemption (802.1Qbu/802.3br) under the Fig. 7(d)
/// workload.
///
/// Without preemption a TS frame can wait behind one full MTU frame per
/// hop (~12 µs at 1 Gbps); with preemption the wait shrinks to one
/// minimum fragment (~0.7 µs). The TS *mean* barely moves (CQF already
/// hides the blocking inside the slot), but max latency and jitter
/// tighten. The on/off pairs share each load's network, so every CQF/ITP
/// plan is computed once.
fn preemption() -> Json {
    let networks: Vec<Arc<AppRequirements>> = LOADS_MBPS
        .iter()
        .map(|&mbps| {
            let (topo, ts) = fixed_path(6, 2, 512, 64);
            // RC and BE at the same bandwidth and MTU frames, sharing the
            // TS path.
            let rate = DataRate::mbps(mbps);
            let bg = workloads::background_flows(&topo, rate, rate, 1500, 5000)
                .expect("valid background");
            requirements(topo, workloads::merge(ts, bg))
        })
        .collect();
    let mut scenarios = Vec::new();
    for preemption in [false, true] {
        for (&mbps, network) in LOADS_MBPS.iter().zip(&networks) {
            let mut config = figure_config(cqf::PAPER_SLOT, ResourceConfig::new());
            config.frame_preemption = preemption;
            scenarios.push(Scenario::explicit(
                format!("preemption={preemption}/bg={mbps}"),
                Arc::clone(network),
                config,
            ));
        }
    }
    let planner = SweepPlanner::new();
    let outcomes = sweep("preemption", &planner, &scenarios);
    println!(
        "[{} scenarios, {} plans computed, {} served from cache]",
        scenarios.len(),
        planner.planning_misses(),
        planner.planning_hits()
    );

    let (off, on) = outcomes.split_at(LOADS_MBPS.len());
    let preemptions = |outcomes: &[ScenarioOutcome]| -> u64 {
        outcomes.iter().map(|o| o.report.preemptions).sum()
    };
    let (off_points, on_points) = (qos_points(LOADS_MBPS, off), qos_points(LOADS_MBPS, on));
    print_series(
        "Fig. 7(d) workload, store-and-forward (no preemption)",
        "bg Mbps",
        &off_points,
    );
    print_series(
        &format!(
            "Fig. 7(d) workload, 802.3br preemption ({} preemptions)",
            preemptions(on)
        ),
        "bg Mbps",
        &on_points,
    );
    println!("\nworst-case TS latency and jitter, with vs without preemption:");
    for (a, b) in off_points.iter().zip(&on_points) {
        println!(
            "  bg {:>4} Mbps: max {:>7.1} -> {:>7.1} us | jitter {:>5.2} -> {:>5.2} us",
            a.x, a.max_us, b.max_us, a.jitter_us, b.jitter_us
        );
    }
    let series = [(false, off, off_points), (true, on, on_points)];
    Json::Arr(Vec::from(series.map(|(preemption, outcomes, points)| {
        Json::obj([
            ("preemption", preemption.to_json()),
            ("points", points.to_json()),
            ("total_preemptions", preemptions(outcomes).to_json()),
        ])
    })))
}
