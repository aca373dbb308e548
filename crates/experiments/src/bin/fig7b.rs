//! Fig. 7(b): end-to-end TS latency under different packet sizes.
//!
//! The paper: "The latency increases slightly as the packet size
//! increases … the time for outputting the packet is positively
//! correlated with the packet size."
//!
//! One scenario per frame size, run in parallel through the scenario
//! sweep.

use tsn_builder::{cqf, run_scenarios, workloads, Scenario};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, print_series, ring_with_analyzers, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::SimDuration;

fn main() {
    let slot = cqf::PAPER_SLOT;
    let scenarios: Vec<Scenario> = workloads::FRAME_SIZES
        .iter()
        .map(|&bytes| {
            let (topo, tester, analyzers) = ring_with_analyzers(6, &[2]).expect("topology builds");
            // 3 hops; fewer flows for the big sizes so one slot (65 us = 5 MTU
            // frames) is never structurally overloaded per phase.
            let flows = workloads::ts_flows_fixed_path(
                256,
                tester,
                analyzers[0],
                bytes,
                SimDuration::from_millis(8),
            )
            .expect("workload builds");
            Scenario::explicit(
                format!("{bytes}B"),
                topo,
                flows,
                figure_config(slot, ResourceConfig::new()),
            )
        })
        .collect();

    let outcomes = expect_outcomes("fig7b", run_scenarios(&scenarios, workers_from_env()));
    let points: Vec<QosPoint> = outcomes
        .iter()
        .zip(&workloads::FRAME_SIZES)
        .map(|(o, &bytes)| QosPoint::from_report(u64::from(bytes), &o.report))
        .collect();

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
    let loss: u64 = points.iter().map(|p| p.loss).sum();
    println!("total TS loss across the sweep: {loss}");
    dump_json("fig7b", &points);
}
