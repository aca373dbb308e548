//! Ablation (§V "Selection of resource parameters"): how much of the
//! queue/buffer saving comes from injection-time planning?
//!
//! Compares the three offset strategies on the paper's 1024-flow ring
//! workload: the peak slot occupancy each produces is the `queue_depth`
//! (and, times 8 queues, the `buffer_num`) that must be provisioned —
//! plus the BRAM each provisioning costs. The three plans run in
//! parallel through the sweep runner.

use tsn_builder::{cqf::PAPER_SLOT, itp, workloads, AppRequirements, CqfPlan};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::dump_json;
use tsn_resource::{AllocationPolicy, ResourceConfig};
use tsn_sim::sweep::run_sweep;
use tsn_topology::presets;
use tsn_types::{DataRate, SimDuration};

struct AblationRow {
    strategy: String,
    max_occupancy: u32,
    queue_depth: u32,
    buffer_num: u32,
    queue_buffer_kb: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.to_json()),
            ("max_occupancy", self.max_occupancy.to_json()),
            ("queue_depth", self.queue_depth.to_json()),
            ("buffer_num", self.buffer_num.to_json()),
            ("queue_buffer_kb", self.queue_buffer_kb.to_json()),
        ])
    }
}

fn main() {
    let topo = presets::ring(6, 3).expect("topology builds");
    let flows = workloads::iec60802_ts_flows(&topo, 1024, 42).expect("workload builds");
    let requirements =
        AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid requirements");
    let plan = CqfPlan::with_slot(&requirements, PAPER_SLOT, DataRate::gbps(1)).expect("feasible");

    println!("ITP ablation — 1024 TS flows, ring(6), slot 65us\n");
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>14}",
        "strategy", "peak occupancy", "queue depth", "buffers", "queue+buf BRAM"
    );
    let strategies = [
        itp::Strategy::AllZero,
        itp::Strategy::UniformSpread,
        itp::Strategy::GreedyLeastLoaded,
    ];
    let rows: Vec<AblationRow> = run_sweep(&strategies, workers_from_env(), |_idx, &strategy| {
        let result = itp::plan(&requirements, &plan, strategy)?;
        let depth = result.recommended_queue_depth();
        let buffers = depth * 8;
        let mut resources = ResourceConfig::new();
        resources.set_queues(depth, 8, 1)?.set_buffers(buffers, 1)?;
        let policy = AllocationPolicy::PaperAccounting;
        let kb = (resources.queue_bits(policy) + resources.buffer_bits(policy)) as f64 / 1024.0;
        Ok(AblationRow {
            strategy: format!("{strategy:?}"),
            max_occupancy: result.max_occupancy,
            queue_depth: depth,
            buffer_num: buffers,
            queue_buffer_kb: kb,
        })
    })
    .into_iter()
    .map(|r| r.expect("itp plans"))
    .collect();
    for row in &rows {
        println!(
            "{:<20} {:>14} {:>12} {:>12} {:>12}Kb",
            row.strategy, row.max_occupancy, row.queue_depth, row.buffer_num, row.queue_buffer_kb
        );
    }
    let naive = rows[0].queue_buffer_kb;
    let greedy = rows[2].queue_buffer_kb;
    println!(
        "\ngreedy ITP vs no planning: {:.1}% less queue+buffer BRAM \
         (the mechanism behind Table I's 540Kb saving)",
        (1.0 - greedy / naive) * 100.0
    );
    dump_json("itp_ablation", &rows);
}
