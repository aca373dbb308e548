//! Extension experiment: QoS vs. fault intensity.
//!
//! The paper's templates exist so a customized switch keeps its
//! guarantees when the network is *not* healthy. This sweep puts a
//! redundant diamond (a short primary path and a longer backup) under a
//! fault grid of increasing intensity — scheduled outages and flaps on
//! the primary links, lossy/corrupting wires on the backup, perturbed
//! oscillators with gPTP message loss — and plots how deadline misses,
//! fault losses and sync error grow with intensity. All three fault
//! families of `tsn_sim::fault` are exercised at every non-zero level.
//!
//! The whole `intensity × seed` grid runs through the parallel scenario
//! sweep (PR-1 worker pool); per-seed reports are deterministic, so the
//! emitted table is too. `--smoke` shrinks the horizon and seed count
//! for CI, keeping all intensity levels and the monotonicity check.

use tsn_builder::{Scenario, SweepPlanner};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{dump_json, expect_outcomes};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_sim::{FaultConfig, LinkFaultProfile, LinkFlap, LinkOutage};
use tsn_switch::time_sync::SyncConfig;
use tsn_topology::{LinkId, Topology};
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowSet, RcFlowSpec, SimDuration, SimTime, TsFlowSpec,
};

/// Fault-intensity levels of the sweep. Level 0 is the healthy control
/// run; every later level scales all three fault families up together.
const LEVELS: [u32; 4] = [0, 1, 2, 3];

/// A diamond with a short primary path (`s0–s1–s3`) and a three-switch
/// backup (`s0–s2a–s2b–s2c–s3`), so killing a primary link forces a
/// detour that is two store-and-forward hops longer — long enough to
/// cost deadlines, not just reroutes. Link creation order: 0 = s0–s1,
/// 1 = s1–s3, 2 = s0–s2a, 3 = s2a–s2b, 4 = s2b–s2c, 5 = s2c–s3, then
/// the host links.
fn diamond() -> (Topology, FlowSet) {
    let mut topo = Topology::new();
    let s0 = topo.add_switch("s0");
    let s1 = topo.add_switch("s1");
    let s2a = topo.add_switch("s2a");
    let s2b = topo.add_switch("s2b");
    let s2c = topo.add_switch("s2c");
    let s3 = topo.add_switch("s3");
    let rate = DataRate::gbps(1);
    topo.connect(s0, s1, rate).expect("link");
    topo.connect(s1, s3, rate).expect("link");
    topo.connect(s0, s2a, rate).expect("link");
    topo.connect(s2a, s2b, rate).expect("link");
    topo.connect(s2b, s2c, rate).expect("link");
    topo.connect(s2c, s3, rate).expect("link");
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
                // Just above the primary path's CQF bound (L_max 260 µs
                // at the paper slot), so planning is feasible on the
                // short path but the longer backup path cannot always
                // make it — detours turn into attributable misses.
                SimDuration::from_micros(280),
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

/// The fault mix at one intensity level: longer primary-path outages,
/// more flap downtime, noisier wires (worst on the backup the detours
/// must use), faster-drifting clocks and lossier gPTP — all scaling
/// together with `level`.
fn faults_at(level: u32, seed: u64, horizon: SimDuration) -> FaultConfig {
    if level == 0 {
        return FaultConfig::none();
    }
    let l = f64::from(level);
    // The outage grows with intensity but always heals well before the
    // horizon, so recovery (reroute back to primary) is exercised too.
    let outage_len = SimDuration::from_micros(2_000 * u64::from(level));
    let flap_start = SimTime::ZERO + horizon / 2;
    FaultConfig {
        seed,
        outages: vec![LinkOutage {
            link: LinkId::new(0), // s0–s1: primary path
            from: SimTime::from_millis(4),
            until: SimTime::from_millis(4) + outage_len,
        }],
        flaps: vec![LinkFlap {
            link: LinkId::new(1), // s1–s3: primary path
            first_down: flap_start,
            mean_down: SimDuration::from_micros(500 * u64::from(level)),
            mean_up: SimDuration::from_millis(4),
        }],
        wire: LinkFaultProfile {
            loss_prob: 0.002 * l,
            corrupt_prob: 0.002 * l,
        },
        per_link_wire: vec![(
            LinkId::new(2), // s0–s2a: the backup path is the noisy one
            LinkFaultProfile {
                loss_prob: 0.012 * l,
                corrupt_prob: 0.012 * l,
            },
        )],
        drift_scale: 1.0 + l,
        sync_loss_prob: 0.08 * l,
        sync_jitter_ns: 25.0 * l,
    }
}

fn scenario(level: u32, seed: u64, duration: SimDuration) -> Scenario {
    let mut config = SimConfig::paper_defaults();
    config.duration = duration;
    config.drain = duration / 2;
    // The diamond's switches have two switch-facing ports; the paper's
    // single-ring default provisions only one TSN port.
    config
        .resources
        .set_queues(12, 8, 2)
        .expect("valid queue geometry");
    // A short sync cadence and warmup so perturbed gPTP rounds actually
    // fire inside the (bench-friendly) horizon.
    config.sync = SyncSetup::Gptp {
        config: SyncConfig {
            sync_interval: SimDuration::from_millis(2),
            timestamp_noise_ns: 8.0,
        },
        warmup: SimDuration::from_millis(6),
    };
    let (topo, flows) = diamond();
    Scenario::explicit(
        format!("intensity={level}/seed={seed}"),
        topo,
        flows,
        config,
    )
    .with_faults(faults_at(level, seed, duration))
}

/// One intensity level's aggregate across its seeds.
struct LevelPoint {
    level: u32,
    /// TS frames delivered past their deadline (split by route state).
    misses_detour: u64,
    misses_primary: u64,
    /// TS frames injected / destroyed by faults / lost in total.
    injected: u64,
    lost: u64,
    lost_to_faults: u64,
    corrupted: u64,
    fcs_drops: u64,
    reroutes: u64,
    syncs_lost: u64,
    sync_high_water_ns: f64,
}

impl LevelPoint {
    /// Frames that failed their deadline outright: delivered late or
    /// never delivered at all (a destroyed frame misses by definition).
    fn deadline_failures(&self) -> u64 {
        self.misses_detour + self.misses_primary + self.lost
    }
}

impl ToJson for LevelPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("intensity", self.level.to_json()),
            ("deadline_failures", self.deadline_failures().to_json()),
            ("misses_on_detour", self.misses_detour.to_json()),
            ("misses_on_primary", self.misses_primary.to_json()),
            ("ts_injected", self.injected.to_json()),
            ("ts_lost", self.lost.to_json()),
            ("frames_lost_to_faults", self.lost_to_faults.to_json()),
            ("frames_corrupted", self.corrupted.to_json()),
            ("fcs_drops", self.fcs_drops.to_json()),
            ("reroutes", self.reroutes.to_json()),
            ("syncs_lost", self.syncs_lost.to_json()),
            (
                "sync_offset_high_water_ns",
                self.sync_high_water_ns.to_json(),
            ),
        ])
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (duration, seeds): (SimDuration, &[u64]) = if smoke {
        (SimDuration::from_millis(16), &[42])
    } else {
        (SimDuration::from_millis(40), &[42, 43, 44])
    };

    let mut scenarios = Vec::new();
    for &level in &LEVELS {
        for &seed in seeds {
            scenarios.push(scenario(level, seed, duration));
        }
    }
    let planner = SweepPlanner::new();
    let outcomes = expect_outcomes("fault_sweep", planner.run(&scenarios, workers_from_env()));
    println!(
        "[{} scenarios ({} intensity levels x {} seeds), {} plans computed, {} served from cache]",
        scenarios.len(),
        LEVELS.len(),
        seeds.len(),
        planner.planning_misses(),
        planner.planning_hits()
    );

    let mut points = Vec::new();
    let mut cursor = outcomes.into_iter();
    for &level in &LEVELS {
        let mut p = LevelPoint {
            level,
            misses_detour: 0,
            misses_primary: 0,
            injected: 0,
            lost: 0,
            lost_to_faults: 0,
            corrupted: 0,
            fcs_drops: 0,
            reroutes: 0,
            syncs_lost: 0,
            sync_high_water_ns: 0.0,
        };
        for _ in seeds {
            let outcome = cursor.next().expect("one outcome per scenario");
            let r = &outcome.report;
            let d = &r.degradation;
            p.misses_detour += d.misses_on_detour();
            p.misses_primary += d.misses_on_primary();
            p.injected += r.ts_injected();
            p.lost += r.ts_lost();
            p.lost_to_faults += d.frames_lost_to_faults();
            p.corrupted += d.frames_corrupted;
            p.fcs_drops += d.fcs_drops;
            p.reroutes += d.reroutes;
            p.syncs_lost += d.syncs_lost;
            let hw = if d.faults_enabled {
                d.sync_offset_high_water_ns
            } else {
                r.sync_worst_error_ns
            };
            p.sync_high_water_ns = p.sync_high_water_ns.max(hw);
        }
        points.push(p);
    }

    println!(
        "\n== QoS vs. fault intensity (diamond, {} seeds/level) ==",
        seeds.len()
    );
    println!(
        "{:>9} {:>9} {:>14} {:>8} {:>11} {:>9} {:>9} {:>9} {:>10} {:>13}",
        "intensity",
        "dl-fail",
        "miss(det/pri)",
        "ts-lost",
        "fault-lost",
        "corrupt",
        "fcs-drop",
        "reroutes",
        "syncs-lost",
        "sync-hw(ns)"
    );
    for p in &points {
        println!(
            "{:>9} {:>9} {:>8}/{:<5} {:>8} {:>11} {:>9} {:>9} {:>9} {:>10} {:>13.1}",
            p.level,
            p.deadline_failures(),
            p.misses_detour,
            p.misses_primary,
            p.lost,
            p.lost_to_faults,
            p.corrupted,
            p.fcs_drops,
            p.reroutes,
            p.syncs_lost,
            p.sync_high_water_ns,
        );
    }

    // The curve the subsystem exists to produce: deadline failures must
    // grow monotonically with fault intensity, and every fault family
    // must have fired at the top level. A violation is a broken fault
    // model, so fail loudly (CI runs this in smoke mode).
    for pair in points.windows(2) {
        assert!(
            pair[1].deadline_failures() >= pair[0].deadline_failures(),
            "deadline failures must be monotone in fault intensity: \
             level {} -> {} went {} -> {}",
            pair[0].level,
            pair[1].level,
            pair[0].deadline_failures(),
            pair[1].deadline_failures(),
        );
    }
    let (floor, top) = (&points[0], points.last().expect("levels exist"));
    assert!(
        top.deadline_failures() > floor.deadline_failures(),
        "faults at the top level must actually cost deadlines"
    );
    assert!(top.reroutes > 0, "link faults never triggered a failover");
    assert!(
        top.fcs_drops > 0,
        "corruption was never caught by an FCS check"
    );
    assert!(top.syncs_lost > 0, "sync faults never fired");
    println!(
        "\nmonotone: deadline failures non-decreasing across all {} levels",
        LEVELS.len()
    );

    dump_json("fault_sweep", &Json::arr(points));
}
