//! Golden-report regression tests for the event core: a fixed scenario
//! must produce a byte-identical `SimReport` no matter which scheduler
//! backend drives it (calendar queue vs the reference binary heap), and
//! no matter how often it is re-run. Both backends realize the same
//! `(time, seq)` total order, so any divergence is a scheduler bug.

use tsn_sim::network::{Network, SimConfig};
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowMap, FlowSet, RcFlowSpec, SimDuration, TsFlowSpec,
};

/// The fixed scenario: a 6-switch ring with mixed TS/RC/BE traffic and
/// drifting gPTP clocks, so the run exercises gating, shaping, sync
/// correction and host contention — every event type the core handles.
fn fixed_scenario() -> (tsn_topology::Topology, FlowSet) {
    let topo = tsn_topology::presets::ring(6, 3).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    for id in 0..12u32 {
        let src = hosts[id as usize % hosts.len()];
        let dst = hosts[(id as usize + 1) % hosts.len()];
        flows.push(
            TsFlowSpec::new(
                FlowId::new(id),
                src,
                dst,
                SimDuration::from_millis(2),
                SimDuration::from_millis(8),
                64 + (id % 4) * 100,
            )
            .expect("valid ts flow")
            .into(),
        );
    }
    flows.push(
        RcFlowSpec::new(
            FlowId::new(100),
            hosts[0],
            hosts[2],
            DataRate::mbps(150),
            512,
        )
        .expect("valid rc flow")
        .into(),
    );
    flows.push(
        BeFlowSpec::new(
            FlowId::new(101),
            hosts[1],
            hosts[0],
            DataRate::mbps(300),
            1024,
        )
        .expect("valid be flow")
        .into(),
    );
    (topo, flows)
}

fn build(preemption: bool) -> Network {
    let (topo, flows) = fixed_scenario();
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(20);
    config.drain = SimDuration::from_millis(10);
    config.frame_preemption = preemption;
    Network::build(topo, flows, &FlowMap::new(), config).expect("network builds")
}

#[test]
fn calendar_and_heap_reports_are_byte_identical() {
    for preemption in [false, true] {
        let calendar = build(preemption).run();
        let heap = build(preemption).with_reference_queue().run();
        assert_eq!(
            calendar, heap,
            "reports diverge between schedulers (preemption={preemption})"
        );
        assert_eq!(
            format!("{calendar:?}"),
            format!("{heap:?}"),
            "debug rendering diverges between schedulers (preemption={preemption})"
        );
        assert!(calendar.events_processed > 0, "the scenario actually ran");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let first = build(false).run();
    let second = build(false).run();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

#[test]
fn fixed_scenario_still_meets_qos_and_counts_events() {
    let report = build(false).run();
    assert_eq!(report.ts_lost(), 0, "paper invariant: zero TS loss");
    // The per-type counters must account for every processed event.
    assert_eq!(report.events.total(), report.events_processed);
    assert!(report.events.queue_high_water > 0);
    // With a perfect-sync free scenario (gPTP default) and a quiet ring,
    // the gate-aware core should have suppressed a meaningful number of
    // pointless wakeups.
    assert!(report.events.kicks_suppressed > 0);
    // A sanity check that the gPTP path ran.
    assert!(report.sync_worst_error_ns >= 0.0);
}
