//! End-to-end behaviour of the simulated TSN network: CQF latency bounds,
//! zero TS loss, background-traffic immunity, resource-shortfall failure
//! modes, determinism.

use tsn_sim::network::{ConfigDelta, Network, NetworkTemplate, SimConfig, SyncSetup};
use tsn_sim::{ReconfigureStats, SimReport};
use tsn_switch::stats::DropReason;
use tsn_topology::{presets, Topology};
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowMap, FlowSet, RcFlowSpec, SimDuration, TrafficClass,
    TsFlowSpec,
};

const SLOT: SimDuration = SimDuration::from_micros(65);

fn ts_flow(id: u32, src: tsn_types::NodeId, dst: tsn_types::NodeId) -> TsFlowSpec {
    TsFlowSpec::new(
        FlowId::new(id),
        src,
        dst,
        SimDuration::from_millis(10),
        SimDuration::from_millis(8),
        64,
    )
    .expect("valid flow")
}

fn short_config() -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(50);
    config
}

/// The paper's customized resources scaled to `ports` enabled TSN ports
/// (Table III columns: star = 3, linear = 2, ring = 1).
fn short_config_for_ports(ports: u32) -> SimConfig {
    let mut config = short_config();
    config
        .resources
        .set_gate_tbl(2, 8, ports)
        .expect("valid")
        .set_cbs_tbl(3, 3, ports)
        .expect("valid")
        .set_queues(12, 8, ports)
        .expect("valid")
        .set_buffers(96, ports)
        .expect("valid");
    config
}

/// Builds and runs the network, checking the pool invariant of every
/// report: no port ever buffers more frames than `buffer_num`.
fn run(topology: Topology, flows: FlowSet, config: SimConfig) -> SimReport {
    let buffer_num = config.resources.buffer_num() as usize;
    let report = Network::build(topology, flows, &FlowMap::new(), config)
        .expect("network builds")
        .run();
    assert!(
        report.max_pool_high_water <= buffer_num,
        "pool high-water {} exceeds buffer_num {buffer_num}",
        report.max_pool_high_water
    );
    report
}

#[test]
fn single_ts_flow_is_lossless_and_slot_bounded() {
    let topo = presets::ring(6, 3).expect("ring builds");
    let hosts = topo.hosts();
    let route = topo.route(hosts[0], hosts[1]).expect("route exists");
    let hop = route.switch_hops() as u64;

    let mut flows = FlowSet::new();
    flows.push(ts_flow(0, hosts[0], hosts[1]).into());
    let report = run(topo, flows, short_config());

    assert!(report.ts_injected() >= 4, "several periods elapsed");
    assert_eq!(report.ts_lost(), 0, "paper: packet loss is 0 in all runs");
    assert_eq!(report.ts_deadline_misses(), 0);

    // Eq. (1): L_max = (hop+1)·slot. Our delivery port is ungated (see
    // DESIGN.md), so the gated-hop count is hop−1 and the lower bound
    // shifts one slot down; the upper bound holds as printed.
    let ts = report.ts_latency();
    let upper = ((hop + 1) * SLOT).as_nanos() as f64;
    let lower = (hop.saturating_sub(2) * SLOT).as_nanos() as f64;
    assert!(
        ts.max().expect("samples exist").as_nanos() as f64 <= upper,
        "max latency within L_max"
    );
    assert!(
        ts.min().expect("samples exist").as_nanos() as f64 >= lower,
        "min latency above the gated-hop lower bound"
    );
}

#[test]
fn latency_grows_one_slot_per_extra_hop() {
    // Hosts on every switch of a 6-ring; destination distance sweeps the
    // hop count like Fig. 7(a).
    let topo = presets::ring(6, 6).expect("ring builds");
    let hosts = topo.hosts();
    let mut means = Vec::new();
    for distance in 1..=4usize {
        let mut flows = FlowSet::new();
        flows.push(ts_flow(0, hosts[0], hosts[distance]).into());
        let report = run(
            presets::ring(6, 6).expect("ring builds"),
            flows,
            short_config(),
        );
        assert_eq!(report.ts_lost(), 0);
        means.push(report.ts_latency().mean_ns());
    }
    let _ = topo;
    for pair in means.windows(2) {
        let delta = pair[1] - pair[0];
        let slot_ns = SLOT.as_nanos() as f64;
        assert!(
            (delta - slot_ns).abs() < 0.25 * slot_ns,
            "each extra hop adds ≈ one slot ({delta} ns vs slot {slot_ns} ns)"
        );
    }
}

#[test]
fn background_traffic_does_not_move_ts_latency() {
    // Fig. 2 / Fig. 7(d): saturating RC+BE background leaves TS flows
    // untouched.
    let build_flows = |with_background: bool| {
        let topo = presets::ring(6, 3).expect("ring builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..8 {
            flows.push(ts_flow(id, hosts[0], hosts[1]).into());
        }
        if with_background {
            flows.push(
                RcFlowSpec::new(
                    FlowId::new(100),
                    hosts[0],
                    hosts[1],
                    DataRate::mbps(200),
                    1024,
                )
                .expect("valid rc")
                .into(),
            );
            flows.push(
                BeFlowSpec::new(
                    FlowId::new(101),
                    hosts[0],
                    hosts[1],
                    DataRate::mbps(400),
                    1024,
                )
                .expect("valid be")
                .into(),
            );
        }
        (topo, flows)
    };

    let (topo_a, quiet) = build_flows(false);
    let quiet_report = run(topo_a, quiet, short_config());
    let (topo_b, loaded) = build_flows(true);
    let loaded_report = run(topo_b, loaded, short_config());

    assert_eq!(quiet_report.ts_lost(), 0);
    assert_eq!(loaded_report.ts_lost(), 0);
    let quiet_mean = quiet_report.ts_latency().mean_ns();
    let loaded_mean = loaded_report.ts_latency().mean_ns();
    // A 1024 B background frame occupies the wire for ~8.4 µs; TS frames
    // may wait behind at most one (non-preemptive). Means must agree
    // within that.
    assert!(
        (quiet_mean - loaded_mean).abs() < 10_000.0,
        "TS latency moved by {} ns under background load",
        (quiet_mean - loaded_mean).abs()
    );
    // Background flows themselves did flow.
    assert!(
        loaded_report
            .analyzer
            .class_latency(TrafficClass::BestEffort)
            .count()
            > 0
    );
}

/// 16 TS flows, all injected at offset 0, all landing in the same slot.
fn burst() -> (Topology, FlowSet) {
    let topo = presets::ring(4, 2).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    for id in 0..16 {
        flows.push(ts_flow(id, hosts[0], hosts[1]).into());
    }
    (topo, flows)
}

fn with_depth_and_buffers(mut config: SimConfig, depth: u32, buffers: u32) -> SimConfig {
    config
        .resources
        .set_queues(depth, 8, 1)
        .expect("valid")
        .set_buffers(buffers, 1)
        .expect("valid");
    config
}

#[test]
fn undersized_queue_depth_loses_ts_frames() {
    // Table I's mechanism: burst > queue_depth within one slot drops.
    let (topo, flows) = burst();
    let report = run(topo, flows, with_depth_and_buffers(short_config(), 2, 96));
    assert!(
        report.ts_lost() > 0,
        "depth 2 cannot absorb a 16-frame slot burst"
    );
    assert!(report.switch_stats.total_drops() > 0);
}

#[test]
fn adequate_queue_depth_absorbs_the_same_burst() {
    let (topo, flows) = burst();
    let report = run(topo, flows, with_depth_and_buffers(short_config(), 16, 128));
    assert_eq!(report.ts_lost(), 0);
    assert!(report.max_queue_high_water <= 16);
    assert!(report.max_queue_high_water >= 8, "burst really queued up");
    assert!(
        report.max_pool_high_water >= report.max_queue_high_water,
        "the pool holds every queue of the port"
    );
}

#[test]
fn shrunk_depth_and_buffers_patch_like_a_fresh_build() {
    // The design-space search's lossy regime: a resources-only delta that
    // shrinks the depth, the buffer pool or both below the burst takes
    // the patch path and still reports exactly like a from-scratch build.
    let (topo, flows) = burst();
    let base = with_depth_and_buffers(short_config(), 16, 128);
    let template = NetworkTemplate::new(topo.clone(), flows.clone(), &FlowMap::new(), base.clone())
        .expect("template builds");
    for (depth, buffers, reason) in [
        (2, 128, DropReason::QueueOverflow),
        (16, 3, DropReason::BufferExhausted),
        (2, 3, DropReason::QueueOverflow),
    ] {
        let shrunk = with_depth_and_buffers(base.clone(), depth, buffers);
        let patched = template
            .reconfigure(&ConfigDelta::resources(shrunk.resources.clone()))
            .expect("reconfigures")
            .run();
        let built = run(topo.clone(), flows.clone(), shrunk);
        assert!(
            built.ts_lost() > 0,
            "depth {depth}, buffers {buffers}: lossy"
        );
        assert!(built.switch_stats.drops(reason) > 0, "{reason:?} drops");
        if reason == DropReason::BufferExhausted {
            assert_eq!(built.max_pool_high_water, buffers as usize, "pool filled");
        }
        assert_eq!(patched, built, "depth {depth}, buffers {buffers}");
        assert_eq!(format!("{patched:?}"), format!("{built:?}"));
    }
    assert_eq!(
        template.reconfigure_stats(),
        ReconfigureStats {
            patched: 3,
            replayed: 0
        }
    );
}

#[test]
fn bounded_runs_stop_at_the_first_certain_failure() {
    let (topo, flows) = burst();
    let build = |depth| {
        let config = with_depth_and_buffers(short_config(), depth, 128);
        Network::build(topo.clone(), flows.clone(), &FlowMap::new(), config).expect("builds")
    };
    let lossy = build(2).run();
    let stop = build(2)
        .run_bounded(0)
        .expect_err("a lost frame decides the verdict");
    assert_eq!(stop.ts_lost, 1, "stops at the first drop");
    assert!(stop.events < lossy.events_processed);
    assert!(stop.at < lossy.ended_at);
    // Tolerating every loss of the full run leaves nothing to stop for.
    let tolerant = build(2).run_bounded(lossy.ts_lost());
    assert_eq!(tolerant.expect("nothing to stop for"), lossy);
    let lossless = build(16).run();
    let bounded = build(16).run_bounded(0).expect("a lossless run completes");
    assert_eq!(format!("{bounded:?}"), format!("{lossless:?}"));
}

#[test]
fn gptp_domain_keeps_gates_usable() {
    let topo = presets::ring(6, 3).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    flows.push(ts_flow(0, hosts[0], hosts[2]).into());
    let mut config = short_config();
    config.sync = SyncSetup::Gptp {
        config: tsn_switch::SyncConfig {
            sync_interval: SimDuration::from_millis(31),
            timestamp_noise_ns: 4.0,
        },
        warmup: SimDuration::from_secs(1),
    };
    let report = run(topo, flows, config);
    assert_eq!(report.ts_lost(), 0);
    assert!(
        report.sync_worst_error_ns < 50.0,
        "paper-level sync precision, got {:.1} ns",
        report.sync_worst_error_ns
    );
}

#[test]
fn perfect_sync_variant_also_works() {
    let topo = presets::linear(4, 2).expect("linear builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    flows.push(ts_flow(0, hosts[0], hosts[1]).into());
    flows.push(ts_flow(1, hosts[1], hosts[0]).into());
    let mut config = short_config_for_ports(2);
    config.sync = SyncSetup::Perfect;
    let report = run(topo, flows, config);
    assert_eq!(report.ts_lost(), 0);
    assert_eq!(report.sync_worst_error_ns, 0.0);
}

#[test]
fn star_topology_carries_cross_traffic() {
    let topo = presets::star(3, 3).expect("star builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    let mut id = 0;
    for &a in hosts {
        for &b in hosts {
            if a != b {
                flows.push(ts_flow(id, a, b).into());
                id += 1;
            }
        }
    }
    let report = run(topo, flows, short_config_for_ports(3));
    assert_eq!(report.ts_lost(), 0);
    assert_eq!(report.analyzer.flow_count(), 6);
}

#[test]
fn simulation_is_deterministic() {
    let make = || {
        let topo = presets::ring(6, 3).expect("ring builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..4 {
            flows.push(ts_flow(id, hosts[0], hosts[1]).into());
        }
        flows.push(
            BeFlowSpec::new(
                FlowId::new(9),
                hosts[2],
                hosts[0],
                DataRate::mbps(300),
                1024,
            )
            .expect("valid be")
            .into(),
        );
        run(topo, flows, short_config())
    };
    let a = make();
    let b = make();
    assert_eq!(a.ts_latency().mean_ns(), b.ts_latency().mean_ns());
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.ts_injected(), b.ts_injected());
}

#[test]
fn link_utilization_tracks_the_offered_load() {
    let topo = presets::ring(6, 3).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    flows.push(ts_flow(0, hosts[0], hosts[1]).into());
    flows.push(
        BeFlowSpec::new(
            FlowId::new(1),
            hosts[0],
            hosts[1],
            DataRate::mbps(400),
            1024,
        )
        .expect("valid be")
        .into(),
    );
    let mut config = short_config();
    config.sync = SyncSetup::Perfect;
    let report = run(topo, flows, config);
    let (_, _, max_util) = report
        .max_link_utilization()
        .expect("traffic was transmitted");
    // 400 Mbps of 1024 B frames + wire overhead ≈ 0.41 of a 1 Gbps link.
    assert!(
        (0.35..=0.50).contains(&max_util),
        "expected ~0.41 utilization, got {max_util}"
    );
    // Every reported utilization is a sane fraction.
    for (_, _, util) in &report.link_utilization {
        assert!((0.0..=1.0).contains(util));
    }
}

#[test]
fn aggregated_switch_table_forwards_identically() {
    let build = |aggregate: bool| {
        let topo = presets::ring(6, 3).expect("ring builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        // 8 flows fit one slot within the default queue depth even
        // without planned offsets.
        for id in 0..8 {
            flows.push(ts_flow(id, hosts[0], hosts[1]).into());
        }
        let mut config = short_config();
        config.sync = SyncSetup::Perfect;
        config.aggregate_switch_tbl = aggregate;
        run(topo, flows, config)
    };
    let exact = build(false);
    let aggregated = build(true);
    assert_eq!(exact.ts_lost(), 0);
    assert_eq!(aggregated.ts_lost(), 0);
    assert_eq!(
        exact.ts_latency().mean_ns(),
        aggregated.ts_latency().mean_ns(),
        "aggregation must not change forwarding behaviour"
    );
}

#[test]
fn undersized_class_table_fails_loudly_at_build() {
    let topo = presets::ring(4, 2).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    for id in 0..32 {
        flows.push(ts_flow(id, hosts[0], hosts[1]).into());
    }
    let mut config = short_config();
    config.resources.set_class_tbl(8).expect("valid");
    let err = Network::build(topo, flows, &FlowMap::new(), config);
    assert!(err.is_err(), "32 flows cannot fit an 8-entry class table");
}

#[test]
fn class_table_one_below_the_floor_fails_build_and_reconfigure() {
    // Table storage is sized by installs, but the capacity is still the
    // check: at the exact floor (the busiest switch's TS entries) the
    // network builds, one entry below it fails with the same error on
    // both instantiation paths. DSE pruning rejects a step below a
    // floor without simulating it, which is only sound while this holds.
    let (topo, flows) = burst();
    let floor = flows.len() as u32;
    let with_class = |size: u32| {
        let mut config = short_config();
        config.resources.set_class_tbl(size).expect("valid");
        config
    };
    let full = "classification table is full (capacity 15)";

    Network::build(
        topo.clone(),
        flows.clone(),
        &FlowMap::new(),
        with_class(floor),
    )
    .expect("the floor fits");
    let Err(err) = Network::build(
        topo.clone(),
        flows.clone(),
        &FlowMap::new(),
        with_class(floor - 1),
    ) else {
        panic!("one below the floor builds");
    };
    assert_eq!(err.to_string(), full);

    let template = NetworkTemplate::new(topo, flows, &FlowMap::new(), with_class(floor))
        .expect("template builds");
    template
        .reconfigure(&ConfigDelta::resources(with_class(floor).resources))
        .expect("the floor fits");
    let Err(err) = template.reconfigure(&ConfigDelta::resources(with_class(floor - 1).resources))
    else {
        panic!("one below the floor reconfigures");
    };
    assert_eq!(err.to_string(), full);
    assert_eq!(
        template.reconfigure_stats(),
        ReconfigureStats {
            patched: 1,
            replayed: 1
        },
        "the patch path hands a capacity it cannot adopt to the replay"
    );
}

#[test]
fn occupancy_stays_within_each_switchs_own_provisioning() {
    // The burst's first switch gets a deep override; every other switch
    // keeps a shallow base. The first switch's queue and pool fill past
    // the base sizes but stay within its own, which is what `finish`
    // asserts per switch in debug builds.
    let (topo, flows) = burst();
    let first = topo
        .route(topo.hosts()[0], topo.hosts()[1])
        .expect("route exists")
        .switch_hops_iter()
        .next()
        .expect("a switch hop")
        .node;
    let base = with_depth_and_buffers(short_config(), 4, 8);
    let deep = with_depth_and_buffers(short_config(), 16, 128).resources;
    let mut config = base.clone();
    config.per_switch_resources.insert(first, deep.clone());
    let report = Network::build(topo, flows, &FlowMap::new(), config)
        .expect("network builds")
        .run();
    assert!(
        report.max_queue_high_water > base.resources.queue_depth() as usize,
        "the deep switch queued past the base depth: {}",
        report.max_queue_high_water
    );
    assert!(report.max_queue_high_water <= deep.queue_depth() as usize);
    assert!(
        report.max_pool_high_water > base.resources.buffer_num() as usize,
        "the deep switch buffered past the base pool: {}",
        report.max_pool_high_water
    );
    assert!(report.max_pool_high_water <= deep.buffer_num() as usize);
}

#[test]
fn injection_offsets_shift_arrival_slots() {
    // Two runs that differ only in the planned offset: both lossless;
    // offsets land frames in different slots so latency differs.
    let base = || {
        let topo = presets::ring(4, 2).expect("ring builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        flows.push(ts_flow(0, hosts[0], hosts[1]).into());
        (topo, flows)
    };
    let (topo_a, flows_a) = base();
    let zero = run(topo_a, flows_a, short_config());

    let (topo_b, flows_b) = base();
    let mut offsets = FlowMap::new();
    offsets.insert(FlowId::new(0), SimDuration::from_micros(32));
    let shifted = Network::build(topo_b, flows_b, &offsets, short_config())
        .expect("network builds")
        .run();

    assert_eq!(zero.ts_lost(), 0);
    assert_eq!(shifted.ts_lost(), 0);
    let delta = (zero.ts_latency().mean_ns() - shifted.ts_latency().mean_ns()).abs();
    assert!(
        delta > 1_000.0,
        "a 32 µs offset must move the phase, delta {delta} ns"
    );
}
