//! Fig. 7(c): end-to-end TS latency under different time slots.
//!
//! The paper: "The average latency and jitter are increased manyfold
//! according to the upper and lower bound in Eq. (1)." Latency must scale
//! linearly with the slot length.
//!
//! Each slot gets its own TSN-Builder derivation (larger slots
//! concentrate more frames per phase, so ITP re-derives the queue depth
//! and buffer count — the customization loop in action); the four
//! derive-and-simulate scenarios run in parallel through the sweep.

use std::sync::Arc;
use tsn_builder::{run_scenarios, DeriveOptions, Scenario};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, fixed_path, print_series, requirements, QosPoint,
};
use tsn_resource::ResourceConfig;
use tsn_types::SimDuration;

const SLOTS_US: [u64; 4] = [33, 65, 130, 195];

fn main() {
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

    let outcomes = expect_outcomes("fig7c", run_scenarios(&scenarios, workers_from_env()));
    let mut points = Vec::new();
    let mut depths = Vec::new();
    for (outcome, &slot_us) in outcomes.iter().zip(&SLOTS_US) {
        points.push(QosPoint::from_report(slot_us, &outcome.report));
        depths.push((
            slot_us,
            outcome.resources.queue_depth(),
            outcome.resources.buffer_num(),
        ));
    }

    print_series(
        "Fig. 7(c) — latency vs slot size (3 hops)",
        "slot us",
        &points,
    );

    println!("\nper-slot derived resources (ITP re-sizing):");
    for (slot_us, depth, buffers) in &depths {
        println!("  slot {slot_us}us -> queue_depth {depth}, buffers {buffers}");
    }
    println!("\nlinearity check (mean latency / slot):");
    for p in &points {
        println!(
            "  slot {}us: mean/slot = {:.2}",
            p.x,
            p.mean_us / p.x as f64
        );
    }
    let loss: u64 = points.iter().map(|p| p.loss).sum();
    println!("total TS loss across the sweep: {loss}");
    dump_json("fig7c", &points);
}
