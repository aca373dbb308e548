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

use std::sync::Arc;
use tsn_builder::{cqf, AppRequirements, Scenario, SweepPlanner};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, fixed_path, print_series, requirements, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::{BeFlowSpec, DataRate, FlowId, RcFlowSpec};

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

/// The Fig. 7(d) network at background load `mbps`, shared by the
/// preemption-off and -on runs.
fn network(mbps: u64) -> Arc<AppRequirements> {
    let (topo, mut flows) = fixed_path(6, 2, 512, 64);
    let (tester, analyzer) = (topo.hosts()[0], topo.hosts()[1]);
    if mbps > 0 {
        // RC and BE at the same bandwidth and MTU frames, sharing the TS
        // path.
        let rate = DataRate::mbps(mbps);
        let rc =
            RcFlowSpec::new(FlowId::new(5000), tester, analyzer, rate, 1500).expect("valid rc");
        let be =
            BeFlowSpec::new(FlowId::new(5001), tester, analyzer, rate, 1500).expect("valid be");
        flows.extend([rc.into(), be.into()]);
    }
    requirements(topo, flows)
}

fn main() {
    let networks: Vec<_> = LOADS_MBPS.iter().map(|&mbps| network(mbps)).collect();
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
