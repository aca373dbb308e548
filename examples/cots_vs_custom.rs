//! COTS vs customized: sweep a *user-defined* topology family and show
//! how the memory saving depends on the scenario — the application-driven
//! customization argument of the paper, beyond its three fixed examples.
//!
//! Builds stars with 1..=8 child switches, derives a customization for
//! each **in parallel** through the sweep runner, and prints the
//! Table III-style totals against the BCM53154 baseline under all three
//! BRAM allocation policies.
//!
//! ```text
//! cargo run --release --example cots_vs_custom
//! TSN_SWEEP_WORKERS=1 cargo run --release --example cots_vs_custom   # serial
//! ```

use tsn_builder::{workloads, DeriveOptions, TsnBuilder};
use tsn_experiments::limits::workers_from_env;
use tsn_resource::{baseline, AllocationPolicy, UsageReport};
use tsn_sim::sweep::run_sweep;
use tsn_topology::presets;
use tsn_types::{SimDuration, TsnError};

fn main() -> Result<(), TsnError> {
    let cots = baseline::bcm53154();

    println!(
        "{:<22} {:>10} {:>14} {:>14} {:>14}",
        "scenario", "TSN ports", "paper policy", "exact bits", "bram36"
    );
    let children: Vec<usize> = (2..=8).collect();
    let rows = run_sweep(&children, workers_from_env(), |_idx, &children| {
        let topology = presets::star(children, children)?;
        let flow_count = (children * 64) as u32;
        let flows = workloads::iec60802_ts_flows(&topology, flow_count, 11)?;
        let mut options = DeriveOptions::automatic();
        options.slot = Some(tsn_builder::PAPER_SLOT);
        let customization =
            TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?.derive(&options)?;

        let mut cells = Vec::new();
        for policy in AllocationPolicy::ALL {
            let custom = customization.usage_report(policy);
            let reference = UsageReport::of(&cots, policy);
            cells.push(format!(
                "{:>7.0}Kb -{:>4.1}%",
                custom.total_kb(),
                custom.reduction_vs(&reference)
            ));
        }
        Ok(format!(
            "{:<22} {:>10} {:>14} {:>14} {:>14}",
            format!("star({children}) x{flow_count} flows"),
            customization.derived().resources.port_num(),
            cells[0],
            cells[1],
            cells[2]
        ))
    });
    for row in rows {
        println!("{}", row.expect("derivation succeeds"));
    }

    println!(
        "\nBCM53154 reference: {:.0}Kb (paper policy)",
        UsageReport::of(&cots, AllocationPolicy::PaperAccounting).total_kb()
    );
    println!(
        "Take-away: the saving grows as the scenario shrinks — the fixed COTS \
         partitioning pays for ports and depths the application never uses."
    );
    Ok(())
}
