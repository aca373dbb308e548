//! Extension experiment: network-wide BRAM under three provisioning
//! granularities.
//!
//! The paper's Table III prices *one switch*; a deployment buys N of
//! them. Three ways to provision a whole network:
//!
//! 1. COTS — every switch is a BCM53154;
//! 2. uniform customization (the paper) — every switch gets the
//!    worst-case column of its scenario;
//! 3. per-switch customization (this repo's extension) — each switch is
//!    sized by its *own* enabled-port count.
//!
//! The three scenarios derive in parallel through the sweep runner.

use tsn_builder::{workloads, AppRequirements, DeriveOptions, PerSwitchConfig};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::dump_json;
use tsn_resource::{baseline, AllocationPolicy};
use tsn_sim::sweep::run_sweep;
use tsn_topology::presets;
use tsn_types::SimDuration;

struct NetworkRow {
    scenario: String,
    switches: usize,
    cots_kb: f64,
    uniform_kb: f64,
    per_switch_kb: f64,
    saving_vs_cots_pct: f64,
    extra_saving_vs_uniform_pct: f64,
}

impl ToJson for NetworkRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("switches", self.switches.to_json()),
            ("cots_kb", self.cots_kb.to_json()),
            ("uniform_kb", self.uniform_kb.to_json()),
            ("per_switch_kb", self.per_switch_kb.to_json()),
            ("saving_vs_cots_pct", self.saving_vs_cots_pct.to_json()),
            (
                "extra_saving_vs_uniform_pct",
                self.extra_saving_vs_uniform_pct.to_json(),
            ),
        ])
    }
}

fn measure(name: &str, topology: tsn_topology::Topology) -> tsn_types::TsnResult<NetworkRow> {
    let flows = workloads::iec60802_ts_flows(&topology, 1024, 42)?;
    let requirements = AppRequirements::new(topology, flows, SimDuration::from_nanos(50))?;
    let cfg = PerSwitchConfig::derive(&requirements, &DeriveOptions::paper())?;
    let policy = AllocationPolicy::PaperAccounting;
    let kb = |bits: u64| bits as f64 / 1024.0;
    let cots = baseline::bcm53154().total_bits(policy) * cfg.switch_count() as u64;
    let per_switch = cfg.network_total_bits(policy);
    Ok(NetworkRow {
        scenario: name.to_owned(),
        switches: cfg.switch_count(),
        cots_kb: kb(cots),
        uniform_kb: kb(cfg.uniform_total_bits(policy)),
        per_switch_kb: kb(per_switch),
        saving_vs_cots_pct: (1.0 - per_switch as f64 / cots as f64) * 100.0,
        extra_saving_vs_uniform_pct: cfg.saving_vs_uniform(policy),
    })
}

fn main() {
    println!("Network-wide BRAM: COTS vs uniform customization vs per-switch customization\n");
    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "scenario", "switches", "COTS", "uniform", "per-switch", "vs COTS", "vs uniform"
    );
    let inputs = [
        ("star(3)", presets::star(3, 3).expect("builds")),
        ("linear(6)", presets::linear(6, 2).expect("builds")),
        ("ring(6)", presets::ring(6, 3).expect("builds")),
    ];
    let rows: Vec<NetworkRow> = run_sweep(&inputs, workers_from_env(), |_idx, (name, topology)| {
        measure(name, topology.clone())
    })
    .into_iter()
    .map(|r| r.expect("derivation succeeds"))
    .collect();
    for r in &rows {
        println!(
            "{:<16} {:>9} {:>10}Kb {:>10}Kb {:>10}Kb {:>11.2}% {:>13.2}%",
            r.scenario,
            r.switches,
            r.cots_kb,
            r.uniform_kb,
            r.per_switch_kb,
            r.saving_vs_cots_pct,
            r.extra_saving_vs_uniform_pct
        );
    }
    println!(
        "\nTake-away: heterogeneous sizing buys extra savings exactly where the paper's \
         uniform column over-provisions (star children, linear edge switches); \
         symmetric rings gain nothing, as expected."
    );
    dump_json("network_totals", &rows);
}
