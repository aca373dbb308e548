//! Table III: comparison of resource usage under different scenarios.
//!
//! Prints the commercial (BCM53154) column and the three customized
//! columns (star 3 ports, linear 2 ports, ring 1 port) with their BRAM
//! totals and reduction percentages, then cross-checks that the full
//! TSN-Builder derivation pipeline (requirements → parameters) lands on
//! the same columns. The three derivations run in parallel through the
//! sweep runner.

use tsn_builder::{workloads, DeriveOptions, TsnBuilder};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::dump_json;
use tsn_resource::{baseline, AllocationPolicy, ResourceConfig, UsageReport};
use tsn_sim::sweep::run_sweep;
use tsn_topology::presets;
use tsn_types::SimDuration;

struct Column {
    scenario: String,
    ports: u32,
    total_kb: f64,
    reduction_pct: f64,
    rows: Vec<(String, String, f64)>,
}

impl ToJson for Column {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("ports", self.ports.to_json()),
            ("total_kb", self.total_kb.to_json()),
            ("reduction_pct", self.reduction_pct.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

fn customized(ports: u32) -> ResourceConfig {
    let mut cfg = ResourceConfig::new();
    cfg.set_switch_tbl(1024, 0)
        .expect("valid")
        .set_class_tbl(1024)
        .expect("valid")
        .set_meter_tbl(1024)
        .expect("valid")
        .set_gate_tbl(2, 8, ports)
        .expect("valid")
        .set_cbs_tbl(3, 3, ports)
        .expect("valid")
        .set_queues(12, 8, ports)
        .expect("valid")
        .set_buffers(96, ports)
        .expect("valid");
    cfg
}

fn column(scenario: &str, config: &ResourceConfig, cots: &UsageReport) -> Column {
    let report = UsageReport::of(config, AllocationPolicy::PaperAccounting);
    Column {
        scenario: scenario.to_owned(),
        ports: config.port_num(),
        total_kb: report.total_kb(),
        reduction_pct: report.reduction_vs(cots),
        rows: report
            .rows()
            .iter()
            .map(|r| (r.name.clone(), r.parameters.clone(), r.kb()))
            .collect(),
    }
}

fn main() {
    let cots_config = baseline::bcm53154();
    let cots = UsageReport::of(&cots_config, AllocationPolicy::PaperAccounting);

    let columns = vec![
        column("Commercial (4 ports)", &cots_config, &cots),
        column("Star (3 ports)", &customized(3), &cots),
        column("Linear (2 ports)", &customized(2), &cots),
        column("Ring (1 port)", &customized(1), &cots),
    ];

    println!("TABLE III — COMPARISON OF RESOURCE USAGE UNDER DIFFERENT SCENARIOS");
    println!(
        "{:<12} {:<24} {:<24} {:<24} {:<24}",
        "Resource",
        columns[0].scenario,
        columns[1].scenario,
        columns[2].scenario,
        columns[3].scenario
    );
    for i in 0..columns[0].rows.len() {
        print!("{:<12}", columns[0].rows[i].0);
        for col in &columns {
            let (_, params, kb) = &col.rows[i];
            print!(" {:<24}", format!("{params} -> {kb}Kb"));
        }
        println!();
    }
    print!("{:<12}", "Total");
    for col in &columns {
        if col.reduction_pct.abs() < f64::EPSILON {
            print!(" {:<24}", format!("{}Kb", col.total_kb));
        } else {
            print!(
                " {:<24}",
                format!("{}Kb (-{:.2}%)", col.total_kb, col.reduction_pct)
            );
        }
    }
    println!();

    println!("\nPaper reference: 10818Kb | 5778Kb (-46.59%) | 3942Kb (-63.56%) | 2106Kb (-80.53%)");

    // Cross-check: the derivation pipeline reproduces the same columns
    // from raw requirements; the three pipelines run concurrently.
    println!("\nDerivation cross-check (requirements -> parameters):");
    let cross_checks = [
        ("star", presets::star(3, 3).expect("builds"), 3u32, 5778.0),
        ("linear", presets::linear(6, 2).expect("builds"), 2, 3942.0),
        ("ring", presets::ring(6, 3).expect("builds"), 1, 2106.0),
    ];
    let derived = run_sweep(
        &cross_checks,
        workers_from_env(),
        |_idx, (_, topology, _, _)| {
            let flows = workloads::iec60802_ts_flows(topology, 1024, 42)?;
            let customization =
                TsnBuilder::new(topology.clone(), flows, SimDuration::from_nanos(50))?
                    .derive(&DeriveOptions::paper())?;
            let report = customization.usage_report(AllocationPolicy::PaperAccounting);
            Ok((
                customization.derived().resources.port_num(),
                report.total_kb(),
            ))
        },
    );
    for (result, (name, _, expect_ports, expect_total)) in derived.into_iter().zip(&cross_checks) {
        let (derived_ports, total_kb) = result.expect("derivation succeeds");
        println!(
            "  {name:<7} derived port_num={derived_ports} total={total_kb}Kb (expected {expect_total}Kb, {expect_ports} ports) {}",
            if derived_ports == *expect_ports && total_kb == *expect_total {
                "OK"
            } else {
                "MISMATCH"
            }
        );
    }

    dump_json("table3", &columns);
}
