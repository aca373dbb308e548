//! End-to-end simulation benchmarks: the runs behind Fig. 2 and
//! Fig. 7, scaled down to bench-friendly durations (10 ms of traffic).
//!
//! These measure *simulator throughput*; the QoS numbers themselves come
//! from the `tsn-experiments` binaries. Besides printing the usual
//! result lines, this bench records each case's median next to the
//! pre-calendar-queue pin ([`tsn_bench::record::SIMULATION`]) and gates
//! the geomean speedup; a run at the recorded budget rewrites
//! `BENCH_2.json`, so the perf trajectory of the event core is
//! machine-readable.
//!
//! The `sim_multi` rows run the same serial loop on larger multi-switch
//! topologies (a 12-switch ring and an 8-child star) with fully derived
//! resources, so the geomean also covers many-switch event mixes.

use std::hint::black_box;
use tsn_bench::record::{num, SIMULATION};
use tsn_bench::{enforce, BenchResult, Record, Runner};
use tsn_builder::{itp, AppRequirements, CqfPlan, Strategy};
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_topology::presets;
use tsn_types::{DataRate, FlowMap, FlowSet, SimDuration};

/// Plans injection offsets the way the real pipeline does, so the bench
/// scenarios are lossless (ITP is part of the system under test).
fn plan_offsets(topo: &tsn_topology::Topology, flows: &FlowSet) -> FlowMap<SimDuration> {
    let req = AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))
        .expect("valid requirements");
    let plan = CqfPlan::with_slot(&req, tsn_builder::PAPER_SLOT, DataRate::gbps(1))
        .expect("slot feasible");
    itp::plan(&req, &plan, Strategy::GreedyLeastLoaded)
        .expect("itp plans")
        .offsets
}

fn sim_config() -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(10);
    config.drain = SimDuration::from_millis(5);
    config.sync = SyncSetup::Perfect;
    config
}

fn ring_flows(ts: u32, bg_mbps: u64) -> (tsn_topology::Topology, FlowSet) {
    let topo = presets::ring(6, 3).expect("topology builds");
    let mut flows =
        tsn_builder::workloads::iec60802_ts_flows(&topo, ts, 42).expect("workload builds");
    if bg_mbps > 0 {
        flows.extend(
            tsn_builder::workloads::background_flows(
                &topo,
                DataRate::mbps(bg_mbps),
                DataRate::mbps(bg_mbps),
                10_000,
            )
            .expect("workload builds"),
        );
    }
    (topo, flows)
}

fn main() {
    let runner = Runner::from_env();
    let mut results: Vec<BenchResult> = Vec::new();

    // Fig. 7(a)-shaped run: TS flows over the ring, quiet network.
    for ts in [32u32, 128] {
        let (topo, flows) = ring_flows(ts, 0);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(runner.bench(&format!("sim_fig7/ts_flows/{ts}"), || {
            let report = Network::build(topo.clone(), flows.clone(), &offsets, sim_config())
                .expect("network builds")
                .run();
            assert_eq!(report.ts_lost(), 0);
            black_box(report.events_processed)
        }));
    }

    // Fig. 2 / Fig. 7(d)-shaped run: TS flows under RC+BE background.
    for bg in [100u64, 400] {
        let (topo, flows) = ring_flows(64, bg);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(runner.bench(&format!("sim_fig2/bg_mbps/{bg}"), || {
            let report = Network::build(topo.clone(), flows.clone(), &offsets, sim_config())
                .expect("network builds")
                .run();
            black_box(report.events_processed)
        }));
    }

    // Table I-shaped run: build cost of the whole network (table
    // programming dominates at scale).
    {
        let (topo, flows) = ring_flows(512, 0);
        results.extend(runner.bench("sim_build/network_build_512_flows", || {
            Network::build(topo.clone(), flows.clone(), &FlowMap::new(), sim_config())
                .expect("network builds")
        }));
    }

    // Preemption machinery cost: the same loaded run with 802.3br on/off.
    for preemption in [false, true] {
        let (topo, flows) = ring_flows(64, 300);
        let offsets = plan_offsets(&topo, &flows);
        results.extend(
            runner.bench(&format!("sim_preemption/enabled/{preemption}"), || {
                let mut config = sim_config();
                config.frame_preemption = preemption;
                let report = Network::build(topo.clone(), flows.clone(), &offsets, config)
                    .expect("network builds")
                    .run();
                black_box(report.events_processed)
            }),
        );
    }

    // Many-switch serial runs. Resources, slot and injection offsets
    // come from the full derivation pipeline (the star hub needs more
    // ports than the paper's ring column provisions).
    for (label, topo, ts) in [
        ("ring12", presets::ring(12, 6).expect("topology builds"), 96),
        ("star8", presets::star(8, 8).expect("topology builds"), 64),
    ] {
        let flows =
            tsn_builder::workloads::iec60802_ts_flows(&topo, ts, 42).expect("workload builds");
        let req = AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))
            .expect("valid requirements");
        let derived = tsn_builder::derive::derive_parameters(
            &req,
            &tsn_builder::derive::DeriveOptions::paper(),
        )
        .expect("derivation succeeds");
        results.extend(runner.bench(&format!("sim_multi/{label}"), || {
            let report = derived
                .template(topo.clone(), flows.clone(), sim_config())
                .and_then(|template| template.instantiate())
                .expect("network builds")
                .run();
            assert_eq!(report.ts_lost(), 0);
            black_box(report.events_processed)
        }));
    }

    let mut record = Record::new(&SIMULATION, runner.budget_ms());
    for r in &results {
        let fields = vec![
            ("median_ns", num(r.median_ns, 1)),
            ("min_ns", num(r.min_ns, 1)),
        ];
        record.case(&r.name, fields);
    }
    enforce([record.finish()]);
}
