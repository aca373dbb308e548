//! Fig. 2: TS latency under (a) best-effort and (b) rate-constrained
//! background traffic, for both Table I resource cases.
//!
//! The paper's claim: "the latency and jitter of TS flows with the
//! highest priority are very stable despite the interference of other
//! flows" — the four series must all be flat over 0–900 Mbps.
//!
//! All 40 points (2 cases × 2 classes × 10 loads) run as one parallel
//! sweep; the two resource cases share each load point's topology, flows
//! and slot, so the planner computes every CQF/ITP plan once and serves
//! the second case from cache.

use tsn_builder::{cqf::PAPER_SLOT, workloads, Scenario, SweepPlanner};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, print_series, ring_with_analyzers, QosPoint,
};
use tsn_resource::{baseline, ResourceConfig};
use tsn_types::{DataRate, SimDuration, TrafficClass};

struct Series {
    case: String,
    background: String,
    points: Vec<QosPoint>,
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::obj([
            ("case", self.case.to_json()),
            ("background", self.background.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

fn point_scenario(
    case: &str,
    resources: &ResourceConfig,
    class: TrafficClass,
    mbps: u64,
) -> Scenario {
    let (topo, tester, analyzers) = ring_with_analyzers(3, &[2]).expect("topology builds");
    // 1023 TS + at most 1 RC filter entry = the 1024-entry table.
    let ts =
        workloads::ts_flows_fixed_path(1023, tester, analyzers[0], 64, SimDuration::from_millis(8))
            .expect("workload builds");
    let (rc, be) = match class {
        TrafficClass::RateConstrained => (DataRate::mbps(mbps), DataRate::ZERO),
        _ => (DataRate::ZERO, DataRate::mbps(mbps)),
    };
    let bg = workloads::background_flows(&topo, rc, be, 5000)
        .expect("workload builds")
        .into_iter()
        // Background shares the tester/analyzer path.
        .map(|f| match f {
            tsn_types::FlowSpec::Rc(r) => tsn_types::RcFlowSpec::new(
                r.id(),
                tester,
                analyzers[0],
                r.reserved_rate(),
                r.frame_bytes(),
            )
            .expect("valid")
            .into(),
            tsn_types::FlowSpec::Be(b) => tsn_types::BeFlowSpec::new(
                b.id(),
                tester,
                analyzers[0],
                b.offered_rate(),
                b.frame_bytes(),
            )
            .expect("valid")
            .into(),
            other => other,
        })
        .collect();
    let flows = workloads::merge(ts, bg);
    Scenario::explicit(
        format!("{case}/{}/bg={mbps}", class.label()),
        topo,
        flows,
        figure_config(PAPER_SLOT, resources.clone()),
    )
}

fn main() {
    let cases = [
        ("Case 1", baseline::table1_case1()),
        ("Case 2", baseline::table1_case2()),
    ];
    let classes = [TrafficClass::BestEffort, TrafficClass::RateConstrained];
    let loads: Vec<u64> = (0..=900).step_by(100).collect();

    let mut scenarios = Vec::new();
    for (case, resources) in &cases {
        for &class in &classes {
            for &mbps in &loads {
                scenarios.push(point_scenario(case, resources, class, mbps));
            }
        }
    }

    let planner = SweepPlanner::new();
    let outcomes = expect_outcomes("fig2", planner.run(&scenarios, workers_from_env()));
    println!(
        "[{} scenarios, {} plans computed, {} served from cache]",
        scenarios.len(),
        planner.planning_misses(),
        planner.planning_hits()
    );

    let mut all = Vec::new();
    let mut cursor = outcomes.into_iter();
    for (case, _) in &cases {
        for class in classes {
            let points: Vec<QosPoint> = loads
                .iter()
                .map(|&mbps| {
                    let outcome = cursor.next().expect("one outcome per scenario");
                    QosPoint::from_report(mbps, &outcome.report)
                })
                .collect();
            print_series(
                &format!("Fig. 2 — {case}, {} as background", class.label()),
                "bg Mbps",
                &points,
            );
            all.push(Series {
                case: (*case).to_owned(),
                background: format!("{} background", class.label()),
                points,
            });
        }
    }

    // Flatness check across each series.
    println!();
    for series in &all {
        let means: Vec<f64> = series.points.iter().map(|p| p.mean_us).collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        let loss: u64 = series.points.iter().map(|p| p.loss).sum();
        println!(
            "{} / {}: mean-latency spread over the sweep = {spread:.2}us, total TS loss = {loss} ({})",
            series.case,
            series.background,
            if spread < 15.0 && loss == 0 {
                "stable, as in the paper"
            } else {
                "UNSTABLE"
            }
        );
    }
    dump_json("fig2", &all);
}
