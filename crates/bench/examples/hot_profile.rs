//! One-off profiling harness for the serial hot path on the scale
//! plant. Not a bench — run it under a sampling profiler when hunting
//! per-event cost:
//! `cargo run --release -p tsn-bench --example hot_profile -- 100000`
//!
//! Each rep prints build and run time, events/sec and the process's
//! peak RSS so far (`VmHWM`; `n/a` off Linux), so speed and memory
//! are read from the same run. Peak RSS is a high-water mark: run one
//! size per process to attribute it.

use std::time::Instant;
use tsn_builder::plant::large_plant;

fn main() {
    let flows: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let reps: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let heap = std::env::args().nth(3).as_deref() == Some("heap");
    for _ in 0..reps {
        let mut plant = large_plant(flows).expect("plant builds");
        if heap {
            plant.config.event_queue = tsn_sim::EventQueueKind::BinaryHeap;
        }
        let t0 = Instant::now();
        let net = plant.into_network().expect("network builds");
        let build = t0.elapsed();
        let t0 = Instant::now();
        let report = net.run();
        let run = t0.elapsed();
        let ev = report.events_processed;
        println!(
            "flows {flows}: build {build:?} run {run:?} {ev} events {:.0} events/sec peak_rss {}",
            ev as f64 / run.as_secs_f64(),
            peak_rss()
        );
        let s = &report.events;
        println!(
            "  injects {} host_kicks {} frame_arrives {} port_kicks {} tx_completes {} link_transitions {}",
            s.injects, s.host_kicks, s.frame_arrives, s.port_kicks, s.tx_completes, s.link_transitions
        );
    }
}

/// The process's peak resident set size (`VmHWM` from
/// `/proc/self/status`), or `n/a` where that file does not exist.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or_else(
            || "n/a".to_owned(),
            |kb| format!("{:.1} MiB", kb as f64 / 1024.0),
        )
}
