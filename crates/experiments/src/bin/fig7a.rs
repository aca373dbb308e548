//! Fig. 7(a): end-to-end TS latency under different hop counts.
//!
//! Ring of 6 switches, slot 65 µs. The flow set traverses 1–4 switches;
//! the paper observes latency growing by about one slot per hop with
//! near-constant jitter, bounded by Eq. (1).
//!
//! The four hop counts run in parallel through the scenario sweep
//! (`TSN_SWEEP_WORKERS` overrides the worker count).

use tsn_builder::{cqf, run_scenarios, workloads, Scenario};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, print_series, ring_with_analyzers, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::SimDuration;

fn main() {
    let slot = cqf::PAPER_SLOT;
    let scenarios: Vec<Scenario> = (1..=4u64)
        .map(|hops| {
            // Analyzer on switch (hops-1): the flow crosses `hops` switches.
            let (topo, tester, analyzers) =
                ring_with_analyzers(6, &[(hops - 1) as usize]).expect("topology builds");
            let flows = workloads::ts_flows_fixed_path(
                1024,
                tester,
                analyzers[0],
                64,
                SimDuration::from_millis(8),
            )
            .expect("workload builds");
            Scenario::explicit(
                format!("hops={hops}"),
                topo,
                flows,
                figure_config(slot, ResourceConfig::new()),
            )
        })
        .collect();

    let outcomes = expect_outcomes("fig7a", run_scenarios(&scenarios, workers_from_env()));
    let points: Vec<QosPoint> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| QosPoint::from_report(i as u64 + 1, &o.report))
        .collect();

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
    let jitters: Vec<f64> = points.iter().map(|p| p.jitter_us).collect();
    let jspread = jitters.iter().cloned().fold(f64::MIN, f64::max)
        - jitters.iter().cloned().fold(f64::MAX, f64::min);
    println!("jitter spread across hop counts: {jspread:.2}us (paper: nearly unchanged)");
    dump_json("fig7a", &points);
}
