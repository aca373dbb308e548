//! Scenario-sweep scaling benchmark: the same Fig. 7-style sweep run
//! serially and through `run_scenarios` at increasing worker counts.
//!
//! Prints a speedup table and asserts that (a) every worker count
//! produces byte-identical per-scenario reports and (b) the parallel
//! sweep beats serial by at least 2x for 8+ scenarios when the machine
//! has the cores for it.

use std::sync::Arc;
use tsn_bench::{fmt_ns, Runner};
use tsn_builder::{AppRequirements, Scenario, SweepPlanner};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_sim::sweep::available_workers;
use tsn_topology::presets;
use tsn_types::SimDuration;

/// Builds the sweep: 8 distinct scenarios (two topologies x four flow
/// counts), so planning is real work and only partially shared.
fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (tag, topo) in [
        ("ring", presets::ring(4, 2).expect("topology builds")),
        ("star", presets::star(3, 3).expect("topology builds")),
    ] {
        for flows in [32u32, 64, 96, 128] {
            let workload = tsn_builder::workloads::iec60802_ts_flows(&topo, flows, 7)
                .expect("workload builds");
            let requirements =
                AppRequirements::new(topo.clone(), workload, SimDuration::from_nanos(50))
                    .expect("valid requirements");
            let mut config = SimConfig::paper_defaults();
            // COTS-sized resources: port_num=4 covers the star hub's
            // three TSN ports (the default provisions only one).
            config.resources = tsn_resource::baseline::bcm53154();
            config.duration = SimDuration::from_millis(20);
            config.drain = SimDuration::from_millis(5);
            config.sync = SyncSetup::Perfect;
            out.push(Scenario::explicit(
                format!("{tag}/{flows}"),
                Arc::new(requirements),
                config,
            ));
        }
    }
    out
}

fn main() {
    let runner = Runner::from_env();
    if !runner.selected("sweep/scaling") {
        return;
    }

    let scenarios = scenarios();
    let n = scenarios.len();
    let cores = available_workers();
    println!("sweep/scaling: {n} scenarios, {cores} workers available");

    // Serial baseline: one planner, scenarios one after another.
    let serial_planner = SweepPlanner::new();
    let (serial_ns, serial_reports) = runner.time_once(|| {
        scenarios
            .iter()
            .map(|s| {
                let outcome = serial_planner.run_one(s).expect("scenario runs");
                format!("{:?}", outcome.report)
            })
            .collect::<Vec<String>>()
    });
    println!(
        "  serial               {:>10}   cache {} hits / {} misses",
        fmt_ns(serial_ns),
        serial_planner.planning_hits(),
        serial_planner.planning_misses(),
    );

    // Oversubscribed counts still run (threads timeshare) and must still
    // produce identical reports; only counts <= cores can show speedup.
    let mut worker_counts = vec![1usize, 2, 4, 8];
    if !worker_counts.contains(&cores) && cores > 8 {
        worker_counts.push(cores);
    }

    let mut best_speedup = 0.0f64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for &workers in &worker_counts {
        // A fresh planner per worker count (as `run_scenarios` would
        // use) so each run's cache hit/miss split is visible on its own.
        let planner = SweepPlanner::new();
        let (ns, reports) = runner.time_once(|| {
            planner
                .run(&scenarios, workers)
                .into_iter()
                .map(|r| format!("{:?}", r.expect("scenario runs").report))
                .collect::<Vec<String>>()
        });
        assert_eq!(
            reports, serial_reports,
            "reports must be byte-identical across worker counts"
        );
        let speedup = serial_ns / ns;
        best_speedup = best_speedup.max(speedup);
        cache_hits += planner.planning_hits();
        cache_misses += planner.planning_misses();
        println!(
            "  workers={workers:<2}           {:>10}   speedup {speedup:.2}x   cache {} hits / {} misses",
            fmt_ns(ns),
            planner.planning_hits(),
            planner.planning_misses(),
        );
    }

    if cores >= 4 {
        assert!(
            best_speedup >= 2.0,
            "expected >=2x speedup on an {n}-scenario sweep with {cores} cores, got {best_speedup:.2}x"
        );
    } else {
        println!("  ({cores} cores: skipping the 2x-speedup assertion)");
    }
    println!(
        "  best speedup: {best_speedup:.2}x | planning cache {cache_hits} hits / \
         {cache_misses} misses across parallel runs (reports identical across all runs)"
    );
}
