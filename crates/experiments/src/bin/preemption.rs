//! Extension experiment: frame preemption (802.1Qbu/802.3br) under the
//! Fig. 7(d) workload.
//!
//! Without preemption a TS frame can wait behind one full MTU frame per
//! hop (~12 µs at 1 Gbps); with preemption the wait shrinks to one
//! minimum fragment (~0.7 µs). The TS *mean* barely moves (CQF already
//! hides the blocking inside the slot), but max latency and jitter tighten
//! — the future-work knob the paper's platform would add next.
//!
//! All ten runs (2 modes × 5 loads) go through one parallel sweep; the
//! on/off pairs share each load's topology and flows, so every CQF/ITP
//! plan is computed once.

use tsn_builder::{cqf, workloads, Scenario, SweepPlanner};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, print_series, ring_with_analyzers, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::{BeFlowSpec, DataRate, FlowId, RcFlowSpec, SimDuration};

const LOADS_MBPS: [u64; 5] = [0, 100, 200, 300, 400];

struct Series {
    preemption: bool,
    points: Vec<QosPoint>,
    total_preemptions: u64,
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::obj([
            ("preemption", self.preemption.to_json()),
            ("points", self.points.to_json()),
            ("total_preemptions", self.total_preemptions.to_json()),
        ])
    }
}

fn point_scenario(preemption: bool, mbps: u64) -> Scenario {
    let slot = cqf::PAPER_SLOT;
    let (topo, tester, analyzers) = ring_with_analyzers(6, &[2]).expect("topology builds");
    let mut flows =
        workloads::ts_flows_fixed_path(512, tester, analyzers[0], 64, SimDuration::from_millis(8))
            .expect("workload builds");
    if mbps > 0 {
        flows.push(
            RcFlowSpec::new(
                FlowId::new(5000),
                tester,
                analyzers[0],
                DataRate::mbps(mbps),
                1500,
            )
            .expect("valid rc")
            .into(),
        );
        flows.push(
            BeFlowSpec::new(
                FlowId::new(5001),
                tester,
                analyzers[0],
                DataRate::mbps(mbps),
                1500,
            )
            .expect("valid be")
            .into(),
        );
    }
    let mut config = figure_config(slot, ResourceConfig::new());
    config.frame_preemption = preemption;
    Scenario::explicit(
        format!("preemption={preemption}/bg={mbps}"),
        topo,
        flows,
        config,
    )
}

fn main() {
    let mut scenarios = Vec::new();
    for preemption in [false, true] {
        for &mbps in &LOADS_MBPS {
            scenarios.push(point_scenario(preemption, mbps));
        }
    }
    let planner = SweepPlanner::new();
    let outcomes = expect_outcomes("preemption", planner.run(&scenarios, workers_from_env()));
    println!(
        "[{} scenarios, {} plans computed, {} served from cache]",
        scenarios.len(),
        planner.planning_misses(),
        planner.planning_hits()
    );

    let mut series = Vec::new();
    let mut cursor = outcomes.into_iter();
    for preemption in [false, true] {
        let mut points = Vec::new();
        let mut total_preemptions = 0;
        for &mbps in &LOADS_MBPS {
            let outcome = cursor.next().expect("one outcome per scenario");
            total_preemptions += outcome.report.preemptions;
            points.push(QosPoint::from_report(mbps, &outcome.report));
        }
        series.push(Series {
            preemption,
            points,
            total_preemptions,
        });
    }
    let (off, on) = (&series[0], &series[1]);

    print_series(
        "Fig. 7(d) workload, store-and-forward (no preemption)",
        "bg Mbps",
        &off.points,
    );
    print_series(
        &format!(
            "Fig. 7(d) workload, 802.3br preemption ({} preemptions)",
            on.total_preemptions
        ),
        "bg Mbps",
        &on.points,
    );
    println!("\nworst-case TS latency and jitter, with vs without preemption:");
    for (a, b) in off.points.iter().zip(on.points.iter()) {
        println!(
            "  bg {:>4} Mbps: max {:>7.1} -> {:>7.1} us | jitter {:>5.2} -> {:>5.2} us",
            a.x, a.max_us, b.max_us, a.jitter_us, b.jitter_us
        );
    }
    dump_json("preemption", &series);
}
