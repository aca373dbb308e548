//! The 802.1Qbv (TAS) extension: synthesized gate windows instead of
//! CQF's cyclic pair — gate tables sized per guideline (2) of the paper
//! ("entries = time slots within a scheduling cycle"), with the same QoS
//! and added off-schedule protection.

use tsn_builder::{
    run_scenarios, workloads, DeriveOptions, DerivedConfig, GateMode, Scenario, TsnBuilder,
};
use tsn_resource::AllocationPolicy;
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration, TsnError};

fn tas_options() -> DeriveOptions {
    let mut options = DeriveOptions::paper();
    options.gate_mode = GateMode::Tas;
    options
}

#[test]
fn tas_mode_sizes_the_gate_table_by_the_hyperperiod() -> Result<(), TsnError> {
    let topo = presets::ring(6, 3)?;
    let flows = workloads::iec60802_ts_flows(&topo, 64, 5)?;
    let customization =
        TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?.derive(&tas_options())?;
    let derived = customization.derived();
    // ceil(10 ms / 65 µs) = 154 slots per effective period.
    assert_eq!(derived.resources.gate_size(), 154);
    assert!(derived.tas.is_some());
    // CQF needs only 2 — the resource abstraction exposes the trade-off.
    let cqf = TsnBuilder::new(
        presets::ring(6, 3)?,
        workloads::iec60802_ts_flows(&presets::ring(6, 3)?, 64, 5)?,
        SimDuration::from_nanos(50),
    )?
    .derive(&DeriveOptions::paper())?;
    assert_eq!(cqf.derived().resources.gate_size(), 2);
    Ok(())
}

#[test]
fn tas_network_is_lossless_like_cqf() -> Result<(), TsnError> {
    let run = |options: &DeriveOptions| -> Result<_, TsnError> {
        let topo = presets::ring(6, 3)?;
        let mut flows = workloads::iec60802_ts_flows(&topo, 64, 5)?;
        flows.extend(workloads::background_flows(
            &topo,
            DataRate::mbps(200),
            DataRate::mbps(200),
            9000,
        )?);
        let customization =
            TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?.derive(options)?;
        Ok(customization
            .synthesize_network(SimDuration::from_millis(60), SyncSetup::Perfect)?
            .run())
    };

    let tas = run(&tas_options())?;
    let cqf = run(&DeriveOptions::paper())?;

    assert_eq!(tas.ts_lost(), 0, "TAS windows must carry all TS frames");
    assert_eq!(tas.ts_deadline_misses(), 0);
    assert_eq!(cqf.ts_lost(), 0);
    assert_eq!(
        tas.switch_stats.drops(tsn_switch::DropReason::GateClosed),
        0,
        "every scheduled frame finds its window open"
    );
    // TAS gates the delivery hop too, so its latency is about one slot
    // above the CQF model; both respect determinism (tiny jitter).
    let delta = tas.ts_latency().mean_ns() - cqf.ts_latency().mean_ns();
    assert!(
        (0.0..=80_000.0).contains(&delta),
        "TAS mean within one slot above CQF, delta {delta} ns"
    );
    Ok(())
}

/// The sweep's TAS path: a derived TAS scenario simulates the
/// synthesized schedule exactly as the `Customization` façade does.
#[test]
fn swept_tas_scenarios_report_like_the_facade() -> Result<(), TsnError> {
    let topo = presets::ring(6, 3)?;
    let mut flows = workloads::iec60802_ts_flows(&topo, 64, 5)?;
    flows.extend(workloads::background_flows(
        &topo,
        DataRate::mbps(200),
        DataRate::mbps(200),
        9000,
    )?);
    let duration = SimDuration::from_millis(30);
    let config = SimConfig {
        duration,
        sync: SyncSetup::Perfect,
        ..SimConfig::paper_defaults()
    };

    let customization = TsnBuilder::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))?
        .derive(&tas_options())?;
    let facade = customization
        .synthesize_network(duration, SyncSetup::Perfect)?
        .run();
    let scenario = Scenario::derived(
        "tas",
        topo.clone(),
        flows.clone(),
        tas_options(),
        config.clone(),
    );
    let swept = run_scenarios(&[scenario], 1)
        .remove(0)
        .expect("the TAS scenario runs")
        .report;
    assert_eq!(swept, facade);
    assert_eq!(format!("{swept:?}"), format!("{facade:?}"));
    assert_eq!(swept.ts_lost(), 0);

    // The schedule is what makes these reports TAS: the same derivation
    // without it reports differently, so the equality above covers it.
    let unscheduled = DerivedConfig {
        tas: None,
        ..customization.derived().clone()
    }
    .template(topo, flows, config)?
    .instantiate()?
    .run();
    assert_ne!(format!("{unscheduled:?}"), format!("{facade:?}"));
    Ok(())
}

#[test]
fn tas_protects_against_off_schedule_traffic() -> Result<(), TsnError> {
    use tsn_switch::gate_ctrl::{GateControlList, GateEntry};
    use tsn_switch::pipeline::{PortKind, SwitchSpec, TsnSwitchCore};
    use tsn_types::{EthernetFrame, MacAddr, PortId, QueueId, SimTime, TrafficClass, VlanId};

    let slot = SimDuration::from_micros(65);
    // A schedule with a single TS window at phase 0 out of 4.
    let base = GateEntry::all_open()
        .with_closed(QueueId::new(6))
        .with_closed(QueueId::new(7));
    let mut in_entries = vec![base; 4];
    in_entries[0] = base.with_open(QueueId::new(6));
    let mut out_entries = vec![base; 4];
    out_entries[1] = base.with_open(QueueId::new(6));
    let in_gcl = GateControlList::new(in_entries, slot)?;
    let out_gcl = GateControlList::new(out_entries, slot)?;

    // gate_size must cover the 4-entry program.
    let mut resources = tsn_resource::ResourceConfig::new();
    resources.set_gate_tbl(4, 8, 1)?;
    let mut spec = SwitchSpec::new(&resources, vec![PortKind::Tsn, PortKind::Edge], slot);
    spec.override_gcl(PortId::new(0), &in_gcl, &out_gcl);
    let mut sw = TsnSwitchCore::new(&spec)?;
    let dst = MacAddr::station(9);
    sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))?;
    let frame = |seq: u64| {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(dst)
            .class(TrafficClass::TimeSensitive)
            .size_bytes(64)
            .sequence(seq)
            .build()
            .expect("valid frame")
    };

    // In the scheduled slot (phase 0): accepted.
    let on_time = sw.receive(frame(0), SimTime::ZERO + SimDuration::from_micros(5));
    assert!(on_time[0].is_enqueued());
    // Off schedule (phase 2): the closed ingress gate drops it.
    let rogue = sw.receive(frame(1), SimTime::ZERO + slot * 2);
    assert!(matches!(
        rogue[0],
        tsn_switch::Disposition::Dropped {
            reason: tsn_switch::DropReason::GateClosed,
            ..
        }
    ));
    // And the on-time frame transmits exactly in its egress window.
    assert!(sw.dequeue(PortId::new(0), SimTime::ZERO).is_none());
    assert!(sw
        .dequeue(
            PortId::new(0),
            SimTime::ZERO + slot + SimDuration::from_micros(1)
        )
        .is_some());
    Ok(())
}

#[test]
fn tas_gate_table_capacity_is_enforced() -> Result<(), TsnError> {
    use tsn_switch::gate_ctrl::{GateControlList, GateEntry};
    use tsn_switch::pipeline::{PortKind, SwitchSpec, TsnSwitchCore};
    use tsn_types::PortId;

    let slot = SimDuration::from_micros(65);
    let long_gcl = GateControlList::new(vec![GateEntry::all_open(); 16], slot)?;
    let resources = tsn_resource::ResourceConfig::new(); // gate_size = 2 (CQF)
    let mut spec = SwitchSpec::new(&resources, vec![PortKind::Tsn], slot);
    spec.override_gcl(PortId::new(0), &long_gcl, &long_gcl);
    assert!(
        TsnSwitchCore::new(&spec).is_err(),
        "a 16-entry program cannot load into a 2-entry gate table"
    );
    Ok(())
}

#[test]
fn tas_costs_more_gate_bram_only_at_scale() -> Result<(), TsnError> {
    // The ablation the resource abstraction makes visible: 154 entries of
    // 17 b still fit one BRAM primitive, so TAS is free here; at very
    // long hyperperiods the gate table grows.
    let topo = presets::ring(6, 3)?;
    let flows = workloads::iec60802_ts_flows(&topo, 64, 5)?;
    let tas = TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?.derive(&tas_options())?;
    let tas_report = tas.usage_report(AllocationPolicy::PaperAccounting);

    let topo = presets::ring(6, 3)?;
    let flows = workloads::iec60802_ts_flows(&topo, 64, 5)?;
    let cqf = TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?
        .derive(&DeriveOptions::paper())?;
    let cqf_report = cqf.usage_report(AllocationPolicy::PaperAccounting);

    let tas_gate = tas_report.row("Gate Tbl").expect("row").bits;
    let cqf_gate = cqf_report.row("Gate Tbl").expect("row").bits;
    assert_eq!(
        tas_gate, cqf_gate,
        "154 x 17 b still rounds to the same BRAM primitive"
    );
    // Under exact accounting the difference is visible.
    let tas_exact = tas.usage_report(AllocationPolicy::ExactBits);
    let cqf_exact = cqf.usage_report(AllocationPolicy::ExactBits);
    assert!(
        tas_exact.row("Gate Tbl").expect("row").bits > cqf_exact.row("Gate Tbl").expect("row").bits
    );
    Ok(())
}
