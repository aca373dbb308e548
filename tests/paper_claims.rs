//! The paper's headline claims, asserted end-to-end across the workspace.

use std::sync::Arc;
use tsn_builder::{
    latency_bounds, run_scenarios, workloads, AppRequirements, DeriveOptions, Scenario, TsnBuilder,
};
use tsn_resource::{baseline, AllocationPolicy, UsageReport};
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_topology::{presets, LinkDirection, Topology};
use tsn_types::{DataRate, NodeId, SimDuration, TsnError};

/// Table III: the four columns and the three headline reductions.
#[test]
fn table_iii_reductions_46_63_80() -> Result<(), TsnError> {
    let cots = UsageReport::of(&baseline::bcm53154(), AllocationPolicy::PaperAccounting);
    assert_eq!(cots.total_kb(), 10_818.0);

    for (preset, expected_total, expected_reduction) in [
        (presets::star(3, 3)?, 5_778.0, 46.59),
        (presets::linear(6, 2)?, 3_942.0, 63.56),
        (presets::ring(6, 3)?, 2_106.0, 80.53),
    ] {
        let flows = workloads::iec60802_ts_flows(&preset, 1024, 42)?;
        let customization = TsnBuilder::new(preset, flows, SimDuration::from_nanos(50))?
            .derive(&DeriveOptions::paper())?;
        let report = customization.usage_report(AllocationPolicy::PaperAccounting);
        assert_eq!(report.total_kb(), expected_total);
        assert!(
            (report.reduction_vs(&cots) - expected_reduction).abs() < 0.005,
            "expected {expected_reduction}%, got {:.3}%",
            report.reduction_vs(&cots)
        );
    }
    Ok(())
}

/// Table I: 540 Kb less queue/buffer BRAM at identical QoS.
#[test]
fn table_i_same_qos_with_540kb_less() -> Result<(), TsnError> {
    let policy = AllocationPolicy::PaperAccounting;
    let case1 = baseline::table1_case1();
    let case2 = baseline::table1_case2();
    let qb1 = case1.queue_bits(policy) + case1.buffer_bits(policy);
    let qb2 = case2.queue_bits(policy) + case2.buffer_bits(policy);
    assert_eq!(qb1 - qb2, 540 * 1024);

    // QoS check on a scaled-down run (256 flows, 30 ms).
    let mut reports = Vec::new();
    for resources in [case1, case2] {
        let topo = presets::ring(3, 2)?;
        let hosts = topo.hosts();
        let flows = workloads::ts_flows_fixed_path(
            256,
            hosts[0],
            hosts[1],
            64,
            SimDuration::from_millis(8),
        )?;
        let customization =
            TsnBuilder::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))?
                .derive(&DeriveOptions::paper())?;
        let mut config = SimConfig::paper_defaults();
        config.duration = SimDuration::from_millis(30);
        config.resources = resources;
        config.sync = SyncSetup::Perfect;
        let report =
            Network::build(topo, flows, &customization.derived().itp.offsets, config)?.run();
        assert_eq!(report.ts_lost(), 0);
        reports.push(report);
    }
    let delta = (reports[0].ts_latency().mean_ns() - reports[1].ts_latency().mean_ns()).abs();
    assert!(
        delta < 1.0,
        "identical traffic and gates: means must match, delta {delta} ns"
    );
    Ok(())
}

/// Fig. 2: rate-constrained background sharing the tester's path leaves
/// the TS flows lossless. Case 1 at 200 Mbps is the point where a shaper
/// wake-up falls on the nanosecond a segment leaves the last switch's
/// analyzer port; a transmitter that then starts another segment over
/// the one still on the wire loses a frame without counting it.
#[test]
fn fig2_rc_background_loses_no_ts_frame() -> Result<(), TsnError> {
    // Fig. 2's network: a 3-switch chain, tester on sw0, analyzer on sw2.
    let mut topo = Topology::new();
    let sw: Vec<NodeId> = (0..3).map(|i| topo.add_switch(format!("sw{i}"))).collect();
    for i in 0..3 {
        topo.connect_with(
            sw[i],
            sw[(i + 1) % 3],
            DataRate::gbps(1),
            SimDuration::from_nanos(50),
            LinkDirection::AToB,
        )?;
    }
    let tester = topo.add_host("tester");
    topo.connect(tester, sw[0], DataRate::gbps(1))?;
    let analyzer = topo.add_host("analyzer0");
    topo.connect(analyzer, sw[2], DataRate::gbps(1))?;
    let period = SimDuration::from_millis(8);
    let ts = workloads::ts_flows_fixed_path(1023, tester, analyzer, 64, period)?;
    let bg = workloads::background_flows(
        &topo,
        DataRate::mbps(200),
        DataRate::ZERO,
        workloads::BACKGROUND_FRAME_BYTES,
        5000,
    )?;
    let flows = workloads::merge(ts, bg);
    let requirements = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
    let mut config = SimConfig::paper_defaults();
    config.resources = baseline::table1_case1();
    let scenario = Scenario::explicit("Case 1/RC/bg=200", Arc::new(requirements), config);
    let outcome = run_scenarios(&[scenario], 1)
        .pop()
        .expect("one scenario, one outcome")
        .unwrap_or_else(|e| panic!("{e}"));
    let report = outcome.report;
    assert!(
        report.ts_injected() >= 1023 * 9,
        "every flow sends all run long"
    );
    assert_eq!(report.ts_lost(), 0, "every TS frame is delivered");
    assert_eq!(report.ts_deadline_misses(), 0);
    Ok(())
}

/// Eq. (1): measured latency stays within L_max for every hop count.
#[test]
fn eq1_upper_bound_holds_across_hops() -> Result<(), TsnError> {
    let slot = tsn_builder::PAPER_SLOT;
    for switches_on_path in 2..=4u64 {
        let topo = presets::ring(6, 6)?;
        let hosts = topo.hosts();
        let flows = workloads::ts_flows_fixed_path(
            64,
            hosts[0],
            hosts[switches_on_path as usize - 1],
            64,
            SimDuration::from_millis(8),
        )?;
        let route = topo.route(hosts[0], hosts[switches_on_path as usize - 1])?;
        let hop = route.switch_hops() as u64;
        // Plan injection offsets so the 64 simultaneous flows do not
        // stack into one slot (the ITP step of the pipeline).
        let requirements = tsn_builder::AppRequirements::new(
            topo.clone(),
            flows.clone(),
            SimDuration::from_nanos(50),
        )?;
        let plan =
            tsn_builder::CqfPlan::with_slot(&requirements, slot, tsn_types::DataRate::gbps(1))?;
        let offsets = tsn_builder::itp::plan(
            &requirements,
            &plan,
            tsn_builder::Strategy::GreedyLeastLoaded,
        )?
        .offsets;
        let mut config = SimConfig::paper_defaults();
        config.duration = SimDuration::from_millis(40);
        config.sync = SyncSetup::Perfect;
        let report = Network::build(topo, flows, &offsets, config)?.run();
        assert_eq!(report.ts_lost(), 0);
        let (_, l_max) = latency_bounds(hop, slot);
        let max = report.ts_latency().max().expect("frames delivered");
        assert!(
            max <= l_max,
            "hop {hop}: measured {max} must be <= L_max {l_max}"
        );
    }
    Ok(())
}

/// §IV.A: the synchronization precision stays below 50 ns during a full
/// measurement run.
#[test]
fn sync_precision_below_50ns_during_traffic() -> Result<(), TsnError> {
    let topo = presets::ring(6, 3)?;
    let flows = workloads::iec60802_ts_flows(&topo, 64, 3)?;
    let customization = TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?
        .derive(&DeriveOptions::paper())?;
    let report = customization
        .synthesize_network(
            SimDuration::from_millis(60),
            SyncSetup::Gptp {
                config: tsn_switch::SyncConfig {
                    sync_interval: SimDuration::from_millis(31),
                    timestamp_noise_ns: 4.0,
                },
                warmup: SimDuration::from_secs(1),
            },
        )?
        .run();
    assert!(
        report.sync_worst_error_ns < 50.0,
        "got {:.1} ns",
        report.sync_worst_error_ns
    );
    assert_eq!(report.ts_lost(), 0);
    Ok(())
}

/// The customization never under-provisions: across all three preset
/// topologies, the derived configuration carries its own scenario with
/// zero TS loss and zero deadline misses.
#[test]
fn derived_configurations_are_self_sufficient() -> Result<(), TsnError> {
    for topology in [
        presets::star(3, 3)?,
        presets::linear(4, 2)?,
        presets::ring(5, 3)?,
    ] {
        let flows = workloads::iec60802_ts_flows(&topology, 128, 9)?;
        let customization = TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?
            .derive(&DeriveOptions::paper())?;
        let report = customization
            .synthesize_network(SimDuration::from_millis(40), SyncSetup::Perfect)?
            .run();
        assert_eq!(report.ts_lost(), 0);
        assert_eq!(report.ts_deadline_misses(), 0);
        assert!(
            report.max_queue_high_water <= customization.derived().resources.queue_depth() as usize
        );
    }
    Ok(())
}

/// Extension: per-switch (heterogeneous) sizing still carries the
/// traffic losslessly — each switch runs with only its own enabled-port
/// provisioning.
#[test]
fn per_switch_sizing_is_lossless() -> Result<(), TsnError> {
    use tsn_builder::PerSwitchConfig;
    let topo = presets::star(3, 3)?;
    let flows = workloads::iec60802_ts_flows(&topo, 96, 11)?;
    let requirements = tsn_builder::AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
    let cfg = PerSwitchConfig::derive(&requirements, &DeriveOptions::paper())?;

    let sim = SimConfig {
        duration: SimDuration::from_millis(40),
        sync: SyncSetup::Perfect,
        per_switch_resources: cfg.per_switch.clone().into_iter().collect(),
        ..SimConfig::paper_defaults()
    };
    let report = cfg
        .uniform
        .template(&requirements, sim)?
        .instantiate()?
        .run();
    assert_eq!(
        report.ts_lost(),
        0,
        "1-port children must still carry the load"
    );
    assert_eq!(report.ts_deadline_misses(), 0);
    Ok(())
}

/// The synthesis stage emits validated Verilog whose parameters echo the
/// derived customization.
#[test]
fn hdl_reflects_derivation() -> Result<(), TsnError> {
    let topo = presets::linear(6, 2)?;
    let flows = workloads::iec60802_ts_flows(&topo, 100, 5)?;
    let mut options = DeriveOptions::automatic();
    options.slot = Some(tsn_builder::PAPER_SLOT);
    let customization =
        TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?.derive(&options)?;
    let derived_depth = customization.derived().resources.queue_depth();
    let bundle = customization.generate_hdl()?;
    let gate = bundle.file("gate_ctrl.v").expect("gate_ctrl emitted");
    assert!(gate.contains(&format!("parameter QUEUE_DEPTH = {derived_depth}")));
    let top = bundle.file("tsn_switch_top.v").expect("top emitted");
    assert!(
        top.contains("parameter PORT_NUM = 2"),
        "linear: 2 TSN ports"
    );
    for (name, src) in bundle.files() {
        tsn_hdl::validate::check_source(src)
            .unwrap_or_else(|e| panic!("{name} failed validation: {e}"));
    }
    Ok(())
}
