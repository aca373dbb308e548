//! The paper's headline scenario at full scale: a 6-switch ring carrying
//! 1024 time-sensitive flows (IEC 60802 production-cell profile) under
//! heavy rate-constrained and best-effort background traffic.
//!
//! Demonstrates the complete Top-down loop — requirements, CQF planning,
//! injection-time planning, derivation, synthesis — and checks the QoS
//! properties the paper reports: zero TS loss, zero deadline misses,
//! latency within Eq. (1), sub-50 ns synchronization.
//!
//! ```text
//! cargo run --release --example industrial_ring
//! ```

use tsn_builder::{latency_bounds, workloads, DeriveOptions, TsnBuilder};
use tsn_sim::network::SyncSetup;
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration, TrafficClass, TsnError};

fn main() -> Result<(), TsnError> {
    // The paper's workload: 1024 TS flows (64 B, 10 ms period, deadlines
    // from {1,2,4,8} ms) plus ~450 Mbps of RC and BE background each.
    let topology = presets::ring(6, 3)?;
    let ts = workloads::iec60802_ts_flows(&topology, 1022, 2024)?;
    let background = workloads::background_flows(
        &topology,
        DataRate::mbps(450),
        DataRate::mbps(450),
        workloads::BACKGROUND_FRAME_BYTES,
        100_000,
    )?;
    let flows = workloads::merge(ts, background);

    let customization = TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?
        .derive(&DeriveOptions::paper())?;
    let derived = customization.derived();
    println!(
        "ITP planned {} offsets; peak slot occupancy {} -> queue depth {} provisioned",
        derived.itp.offsets.len(),
        derived.itp.max_occupancy,
        derived.resources.queue_depth()
    );
    println!(
        "CQF: slot {}, {} phases/cycle, worst L_max {}",
        derived.cqf.slot, derived.cqf.phases, derived.cqf.worst_latency
    );

    let report = customization
        .synthesize_network(SimDuration::from_millis(100), SyncSetup::default())?
        .run();

    println!("\n{report}\n");

    // The paper's QoS claims, checked programmatically.
    assert_eq!(report.ts_lost(), 0, "packet loss in all experiments is 0");
    assert_eq!(report.ts_deadline_misses(), 0, "every deadline met");
    let worst_hops = customization.requirements().max_ts_hops() as u64;
    let (_, l_max) = latency_bounds(worst_hops, derived.cqf.slot);
    let measured_max = report.ts_latency().max().expect("TS frames were delivered");
    assert!(
        measured_max <= l_max,
        "measured max {measured_max} must respect Eq. (1) L_max {l_max}"
    );
    assert!(
        report.sync_worst_error_ns < 50.0,
        "gPTP precision within the paper's 50 ns"
    );

    let rc = report.analyzer.class_latency(TrafficClass::RateConstrained);
    let be = report.analyzer.class_latency(TrafficClass::BestEffort);
    println!(
        "background delivered too: RC {} frames (avg {:.0}us), BE {} frames (avg {:.0}us)",
        rc.count(),
        rc.mean_us(),
        be.count(),
        be.mean_us()
    );
    println!("\nall QoS invariants hold — the customized switch matches the COTS QoS");
    Ok(())
}
