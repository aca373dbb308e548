//! Table I (+ §II.A motivation): two queue/buffer configurations at the
//! same QoS.
//!
//! Three chained switches with one enabled TSN port each; 1024 TS flows
//! of 64 B at 10 ms period injected by the tester. Case 1 provisions
//! depth 16 / 128 buffers, Case 2 depth 12 / 96 buffers — 540 Kb less
//! BRAM. Both must show identical latency/jitter and zero loss.
//!
//! Both cases run in parallel; they share the same topology, flows and
//! slot, so the planner computes the CQF/ITP plan once.

use std::sync::Arc;
use tsn_builder::{cqf::PAPER_SLOT, Scenario, SweepPlanner};
use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::{
    dump_json, expect_outcomes, figure_config, fixed_path, requirements, QosPoint,
};
use tsn_resource::{baseline, AllocationPolicy};

struct CaseResult {
    name: String,
    queue_depth: u32,
    buffer_num: u32,
    queue_buffer_kb: f64,
    qos: QosPoint,
}

impl ToJson for CaseResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("queue_depth", self.queue_depth.to_json()),
            ("buffer_num", self.buffer_num.to_json()),
            ("queue_buffer_kb", self.queue_buffer_kb.to_json()),
            ("qos", self.qos.to_json()),
        ])
    }
}

fn main() {
    // Three switches in a chain (ring of 3, traffic one way), tester on
    // sw0, analyzer on sw2 — "three TSN switches with one enabled port
    // connected with each other". Both cases run on this one network.
    let (topo, flows) = fixed_path(3, 2, 1024, 64);
    let shared = requirements(topo, flows);
    let configs = [
        ("Case 1", baseline::table1_case1()),
        ("Case 2", baseline::table1_case2()),
    ];
    let scenarios: Vec<Scenario> = configs
        .into_iter()
        .map(|(name, resources)| {
            Scenario::explicit(
                name,
                Arc::clone(&shared),
                figure_config(PAPER_SLOT, resources),
            )
        })
        .collect();
    let planner = SweepPlanner::new();
    let outcomes = expect_outcomes("table1", planner.run(&scenarios, workers_from_env()));
    assert!(
        planner.planning_hits() > 0,
        "the two cases share one planning input"
    );

    let policy = AllocationPolicy::PaperAccounting;
    let cases: Vec<CaseResult> = outcomes
        .iter()
        .map(|outcome| {
            let resources = &outcome.resources;
            CaseResult {
                name: outcome.label.clone(),
                queue_depth: resources.queue_depth(),
                buffer_num: resources.buffer_num(),
                queue_buffer_kb: (resources.queue_bits(policy) + resources.buffer_bits(policy))
                    as f64
                    / 1024.0,
                qos: QosPoint::from_report(u64::from(resources.queue_depth()), &outcome.report),
            }
        })
        .collect();

    println!("TABLE I — CONFIGURATION OF QUEUE AND PACKET BUFFER");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "", "PktNum/Queue", "PacketBufNum", "Q+B BRAM", "avg(us)", "jitter(us)", "max(us)", "loss"
    );
    for c in &cases {
        println!(
            "{:<8} {:>14} {:>14} {:>11}Kb {:>12.1} {:>12.2} {:>12.1} {:>8}",
            c.name,
            c.queue_depth,
            c.buffer_num,
            c.queue_buffer_kb,
            c.qos.mean_us,
            c.qos.jitter_us,
            c.qos.max_us,
            c.qos.loss
        );
    }
    let saved = cases[0].queue_buffer_kb - cases[1].queue_buffer_kb;
    println!("\nBRAM saved by Case 2: {saved}Kb (paper: 540Kb)");
    let delta = (cases[0].qos.mean_us - cases[1].qos.mean_us).abs();
    println!(
        "QoS delta between cases: {delta:.2}us mean latency ({}) — paper: identical QoS",
        if delta < 5.0 { "same" } else { "DIFFERENT" }
    );
    dump_json("table1", &cases);
}
