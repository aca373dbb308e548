//! Ablation (§III.C guideline 1): table aggregation by transmission path.
//!
//! "The number of entries for each table is equal to the number of
//! application flows in the worst case. For optimal configurations, some
//! table entries could be aggregated according to the transmission
//! path." — one aggregated any-VLAN entry per *destination* replaces one
//! exact entry per *flow* in the switch table; QoS must be unchanged.
//!
//! Both modes derive and simulate in parallel through the scenario sweep.

use tsn_builder::{run_scenarios, workloads, DeriveOptions, Scenario};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{dump_json, expect_outcomes};
use tsn_resource::{AllocationPolicy, UsageReport};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_topology::presets;
use tsn_types::SimDuration;

struct AggRow {
    mode: String,
    unicast_size: u32,
    switch_tbl_kb: f64,
    total_kb: f64,
    ts_lost: u64,
    mean_us: f64,
}

impl ToJson for AggRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", self.mode.to_json()),
            ("unicast_size", self.unicast_size.to_json()),
            ("switch_tbl_kb", self.switch_tbl_kb.to_json()),
            ("total_kb", self.total_kb.to_json()),
            ("ts_lost", self.ts_lost.to_json()),
            ("mean_us", self.mean_us.to_json()),
        ])
    }
}

fn scenario(aggregate: bool) -> Scenario {
    let topo = presets::ring(6, 3).expect("topology builds");
    let flows = workloads::iec60802_ts_flows(&topo, 1024, 42).expect("workload builds");
    let mut options = DeriveOptions::automatic();
    options.slot = Some(tsn_builder::PAPER_SLOT);
    options.aggregate_switch_tbl = aggregate;
    let mut config = SimConfig::paper_defaults();
    config.duration = SimDuration::from_millis(60);
    config.sync = SyncSetup::Perfect;
    Scenario::derived(
        if aggregate {
            "aggregated (per destination)"
        } else {
            "exact (per flow)"
        },
        topo,
        flows,
        options,
        config,
    )
}

fn main() {
    println!("Switch-table aggregation ablation — 1024 TS flows, 3 destinations, ring(6)\n");
    println!(
        "{:<30} {:>12} {:>14} {:>10} {:>8} {:>10}",
        "mode", "entries", "switch BRAM", "total", "TS loss", "avg(us)"
    );
    let scenarios = vec![scenario(false), scenario(true)];
    let outcomes = expect_outcomes("aggregation", run_scenarios(&scenarios, workers_from_env()));
    let rows: Vec<AggRow> = outcomes
        .iter()
        .map(|outcome| {
            let report = UsageReport::of(&outcome.resources, AllocationPolicy::PaperAccounting);
            AggRow {
                mode: outcome.label.clone(),
                unicast_size: outcome.resources.unicast_size(),
                switch_tbl_kb: report.row("Switch Tbl").expect("row").kb(),
                total_kb: report.total_kb(),
                ts_lost: outcome.report.ts_lost(),
                mean_us: outcome.report.ts_latency().mean_us(),
            }
        })
        .collect();
    for r in &rows {
        println!(
            "{:<30} {:>12} {:>12}Kb {:>8}Kb {:>8} {:>10.1}",
            r.mode, r.unicast_size, r.switch_tbl_kb, r.total_kb, r.ts_lost, r.mean_us
        );
    }
    println!(
        "\nswitch-table BRAM saved by aggregation: {}Kb, identical QoS: {}",
        rows[0].switch_tbl_kb - rows[1].switch_tbl_kb,
        rows[0].ts_lost == 0
            && rows[1].ts_lost == 0
            && (rows[0].mean_us - rows[1].mean_us).abs() < 1.0
    );
    dump_json("aggregation", &rows);
}
