//! Fig. 7(d): end-to-end TS latency under different background flows.
//!
//! RC and BE background is injected simultaneously at equal bandwidth
//! (the paper sweeps the load); "there is no affection on the latency and
//! jitter of critical TS flows" and packet loss stays zero.
//!
//! The five load points run in parallel through the scenario sweep.

use tsn_builder::{cqf, run_scenarios, workloads, Scenario};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, fixed_path, print_series, requirements, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::DataRate;

const LOADS_MBPS: [u64; 5] = [0, 100, 200, 300, 400];

fn main() {
    let slot = cqf::PAPER_SLOT;
    let scenarios: Vec<Scenario> = LOADS_MBPS
        .iter()
        .map(|&mbps| {
            // 1023 TS + 1 RC stream = 1024 classification entries, the
            // paper's table budget (BE takes the PCP fallback).
            let (topo, ts) = fixed_path(6, 2, 1023, 64);
            // RC and BE at the same bandwidth, sharing the TS path.
            let rate = DataRate::mbps(mbps);
            let bg =
                workloads::background_flows(&topo, rate, rate, 5000).expect("valid background");
            Scenario::explicit(
                format!("bg={mbps}Mbps"),
                requirements(topo, workloads::merge(ts, bg)),
                figure_config(slot, ResourceConfig::new()),
            )
        })
        .collect();

    let outcomes = expect_outcomes("fig7d", run_scenarios(&scenarios, workers_from_env()));
    let points: Vec<QosPoint> = outcomes
        .iter()
        .zip(&LOADS_MBPS)
        .map(|(o, &mbps)| QosPoint::from_report(mbps, &o.report))
        .collect();

    print_series(
        "Fig. 7(d) — latency vs background load (RC+BE, each at x Mbps, 3 hops)",
        "bg Mbps",
        &points,
    );

    let means: Vec<f64> = points.iter().map(|p| p.mean_us).collect();
    let spread = means.iter().cloned().fold(f64::MIN, f64::max)
        - means.iter().cloned().fold(f64::MAX, f64::min);
    let loss: u64 = points.iter().map(|p| p.loss).sum();
    println!(
        "\nTS mean-latency spread over the load sweep: {spread:.2}us, TS loss {loss} \
         (paper: no effect, loss 0)"
    );
    dump_json("fig7d", &points);
}
