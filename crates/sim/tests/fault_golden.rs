//! Fault-subsystem golden tests.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Fault-free byte-identity** — a run with `FaultConfig::none()`
//!    produces exactly the report the simulator produced before the
//!    fault subsystem existed. The constants below were captured from
//!    the pre-fault build on this fixed scenario; every field (including
//!    f64 bit patterns) must still match.
//! 2. **Fault determinism** — with faults armed, the same seed gives a
//!    byte-identical `DegradationReport` across repeated runs, across
//!    event-queue backends, and across sweep worker counts (the PR-1
//!    guarantee extends to faulted runs).

use tsn_sim::network::{Network, SimConfig};
use tsn_sim::{run_sweep, FaultConfig, LinkFaultProfile, LinkFlap, LinkOutage, SimReport};
use tsn_topology::LinkId;
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowMap, FlowSet, RcFlowSpec, SimDuration, TsFlowSpec,
};

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

/// A diamond with a short primary path (`s0–s1–s3`) and a longer backup
/// (`s0–s2a–s2b–s3`), so killing a primary link forces a real detour.
/// Link creation order: 0 = s0–s1, 1 = s1–s3, 2 = s0–s2a, 3 = s2a–s2b,
/// 4 = s2b–s3, then the host links.
fn redundant_scenario() -> (tsn_topology::Topology, FlowSet) {
    let mut topo = tsn_topology::Topology::new();
    let s0 = topo.add_switch("s0");
    let s1 = topo.add_switch("s1");
    let s2a = topo.add_switch("s2a");
    let s2b = topo.add_switch("s2b");
    let s3 = topo.add_switch("s3");
    let rate = DataRate::gbps(1);
    topo.connect(s0, s1, rate).expect("link");
    topo.connect(s1, s3, rate).expect("link");
    topo.connect(s0, s2a, rate).expect("link");
    topo.connect(s2a, s2b, rate).expect("link");
    topo.connect(s2b, s3, rate).expect("link");
    let ha = topo.add_host("ha");
    let hb = topo.add_host("hb");
    topo.connect(ha, s0, rate).expect("link");
    topo.connect(hb, s3, rate).expect("link");

    let mut flows = FlowSet::new();
    for id in 0..8u32 {
        let (src, dst) = if id % 2 == 0 { (ha, hb) } else { (hb, ha) };
        flows.push(
            TsFlowSpec::new(
                FlowId::new(id),
                src,
                dst,
                SimDuration::from_millis(1),
                SimDuration::from_micros(120),
                64 + (id % 4) * 100,
            )
            .expect("valid ts flow")
            .into(),
        );
    }
    flows.push(
        RcFlowSpec::new(FlowId::new(100), ha, hb, DataRate::mbps(150), 512)
            .expect("valid rc flow")
            .into(),
    );
    flows.push(
        BeFlowSpec::new(FlowId::new(101), hb, ha, DataRate::mbps(200), 1024)
            .expect("valid be flow")
            .into(),
    );
    (topo, flows)
}

fn base_config() -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(20);
    config.drain = SimDuration::from_millis(10);
    config.frame_preemption = false;
    config
}

fn run_with(config: SimConfig) -> SimReport {
    let (topo, flows) = fixed_scenario();
    Network::build(topo, flows, &FlowMap::new(), config)
        .expect("network builds")
        .run()
}

fn build_redundant(mut config: SimConfig) -> Network {
    // The diamond's switches have two switch-facing ports; the paper's
    // single-ring default provisions only one TSN port.
    config
        .resources
        .set_queues(12, 8, 2)
        .expect("valid queue geometry");
    let (topo, flows) = redundant_scenario();
    Network::build(topo, flows, &FlowMap::new(), config).expect("network builds")
}

fn run_redundant(config: SimConfig) -> SimReport {
    build_redundant(config).run()
}

/// A mid-intensity fault mix exercising all three families: a scheduled
/// outage and a flap on the primary path, lossy/corrupting wires, and
/// sync faults.
fn faulty_config(seed: u64) -> SimConfig {
    let mut config = base_config();
    // The default gPTP warmup (2 s) pushes every sync round past this
    // 30 ms horizon; shrink both so faulted rounds fire mid-experiment.
    config.sync = tsn_sim::SyncSetup::Gptp {
        config: tsn_switch::time_sync::SyncConfig {
            sync_interval: SimDuration::from_millis(2),
            timestamp_noise_ns: 8.0,
        },
        warmup: SimDuration::from_millis(6),
    };
    config.faults = FaultConfig {
        seed,
        outages: vec![LinkOutage {
            link: LinkId::new(0), // s0–s1: primary path
            from: tsn_types::SimTime::from_millis(4),
            until: tsn_types::SimTime::from_millis(9),
        }],
        flaps: vec![LinkFlap {
            link: LinkId::new(1), // s1–s3: primary path
            first_down: tsn_types::SimTime::from_millis(10),
            mean_down: SimDuration::from_millis(1),
            mean_up: SimDuration::from_millis(3),
        }],
        wire: LinkFaultProfile {
            loss_prob: 0.002,
            corrupt_prob: 0.002,
        },
        per_link_wire: vec![(
            LinkId::new(2), // s0–s2a: backup path is noisy
            LinkFaultProfile {
                loss_prob: 0.02,
                corrupt_prob: 0.02,
            },
        )],
        drift_scale: 2.0,
        sync_loss_prob: 0.2,
        sync_jitter_ns: 40.0,
    };
    config
}

// Captured from the pre-fault-subsystem build (commit 35d2b2b) on the
// fixed scenario above. Do not "update" these to make the test pass: a
// mismatch means fault-free behaviour changed.
const BASE_EVENTS_PROCESSED: u64 = 30_097;
const BASE_ENDED_AT_NS: u64 = 20_058_806;
const BASE_TS_COUNT: u64 = 120;
const BASE_TS_MEAN_US_BITS: u64 = 0x40618b93dd97f62b;
const BASE_TS_MIN_NS: u64 = 68_548;
const BASE_TS_MAX_NS: u64 = 281_646;
const BASE_SWITCH_RX: u64 = 6_957;
const BASE_SYNC_WORST_ERROR_NS_BITS: u64 = 0x40413d712c000000;
const BASE_FRAME_ARRIVES: u64 = 8_543;
const BASE_PORT_KICKS: u64 = 9_738;
const BASE_HOST_KICKS: u64 = 1_687;
const BASE_INJECTS: u64 = 1_586;
const BASE_TX_COMPLETES: u64 = 8_543;
const BASE_KICKS_SUPPRESSED: u64 = 8_543;
const BASE_QUEUE_HIGH_WATER: usize = 38;

#[test]
fn fault_free_run_matches_pre_fault_baseline() {
    let report = run_with(base_config());
    let ts = report.ts_latency();
    assert_eq!(report.events_processed, BASE_EVENTS_PROCESSED);
    assert_eq!(report.ended_at.as_nanos(), BASE_ENDED_AT_NS);
    assert_eq!(ts.count(), BASE_TS_COUNT);
    assert_eq!(ts.mean_us().to_bits(), BASE_TS_MEAN_US_BITS);
    assert_eq!(ts.min().map(|d| d.as_nanos()), Some(BASE_TS_MIN_NS));
    assert_eq!(ts.max().map(|d| d.as_nanos()), Some(BASE_TS_MAX_NS));
    assert_eq!(report.ts_lost(), 0);
    assert_eq!(report.ts_injected(), BASE_TS_COUNT);
    assert_eq!(report.ts_deadline_misses(), 0);
    assert_eq!(report.preemptions, 0);
    assert_eq!(report.switch_stats.received, BASE_SWITCH_RX);
    assert_eq!(report.switch_stats.enqueued, BASE_SWITCH_RX);
    assert_eq!(report.switch_stats.transmitted, BASE_SWITCH_RX);
    assert_eq!(report.switch_stats.total_drops(), 0);
    assert_eq!(report.host_overflow_drops, 0);
    assert_eq!(report.max_queue_high_water, 4);
    assert_eq!(
        report.sync_worst_error_ns.to_bits(),
        BASE_SYNC_WORST_ERROR_NS_BITS
    );
    assert_eq!(report.events.frame_arrives, BASE_FRAME_ARRIVES);
    assert_eq!(report.events.port_kicks, BASE_PORT_KICKS);
    assert_eq!(report.events.host_kicks, BASE_HOST_KICKS);
    assert_eq!(report.events.injects, BASE_INJECTS);
    assert_eq!(report.events.tx_completes, BASE_TX_COMPLETES);
    assert_eq!(report.events.kicks_suppressed, BASE_KICKS_SUPPRESSED);
    assert_eq!(report.events.preempt_attempts, 0);
    assert_eq!(report.events.link_transitions, 0);
    assert_eq!(report.events.queue_high_water, BASE_QUEUE_HIGH_WATER);
    // The degradation report exists but is all-zero on healthy runs.
    assert!(!report.degradation.faults_enabled);
    assert_eq!(report.degradation, Default::default());
    assert_eq!(report.events.total(), report.events_processed);
}

#[test]
fn all_three_fault_families_surface_in_the_report() {
    let report = run_redundant(faulty_config(42));
    let d = &report.degradation;
    assert!(d.faults_enabled);
    // Family 1: link availability.
    assert!(d.link_down_events >= 2, "outage + at least one flap");
    assert!(report.events.link_transitions > 0);
    assert!(d.reroutes > 0, "failover rerouted flows");
    assert!(d.frames_lost_on_dead_links > 0, "in-flight frames died");
    // Family 2: wire quality — and no silent delivery of corruption.
    assert!(d.frames_lost_to_wire > 0);
    assert!(d.frames_corrupted > 0);
    assert!(
        d.fcs_drops > 0,
        "corrupted frames were caught, not delivered"
    );
    assert!(
        d.fcs_drops <= d.frames_corrupted,
        "every FCS drop traces back to an injected corruption"
    );
    // Family 3: clock health.
    assert!(d.syncs_lost > 0);
    assert!(d.sync_offset_high_water_ns >= report.sync_worst_error_ns);
    // Consequences are visible end to end.
    assert!(report.ts_lost() > 0, "faults actually destroyed TS frames");
    assert_eq!(report.events.total(), report.events_processed);
}

#[test]
fn faulted_runs_are_deterministic_per_seed() {
    let a = run_redundant(faulty_config(7));
    let b = run_redundant(faulty_config(7));
    assert_eq!(a, b, "same seed: byte-identical SimReport");
    assert_eq!(
        format!("{:?}", a.degradation),
        format!("{:?}", b.degradation)
    );
    let c = run_redundant(faulty_config(8));
    assert_ne!(
        a.degradation, c.degradation,
        "different seeds draw different fault trajectories"
    );
}

#[test]
fn event_queue_backends_agree_under_faults() {
    let calendar = run_redundant(faulty_config(3));
    let heap = build_redundant(faulty_config(3))
        .with_reference_queue()
        .run();
    assert_eq!(
        calendar, heap,
        "both backends pop the same order, so fault draws align"
    );
}

#[test]
fn degradation_report_is_worker_count_independent() {
    let seeds = [11u64, 12, 13, 14];
    let run_all = |workers: usize| {
        run_sweep(&seeds, workers, |_idx, &seed| {
            Ok(run_redundant(faulty_config(seed)))
        })
    };
    let serial = run_all(1);
    let parallel = run_all(4);
    for (a, b) in serial.iter().zip(parallel.iter()) {
        let a = a.as_ref().expect("runs succeed");
        let b = b.as_ref().expect("runs succeed");
        assert_eq!(a, b, "worker count cannot leak into a report");
        assert_eq!(
            format!("{:?}", a.degradation),
            format!("{:?}", b.degradation),
            "DegradationReport byte-identical across worker counts"
        );
    }
}
