//! §IV.A: "The synchronization precision on FPGA is less than 50ns."
//!
//! Runs the gPTP domain over the 6-switch chain with drifting oscillators
//! and PHY timestamp noise, and reports the worst absolute error over a
//! one-second window, sampled between sync rounds (the worst case). The
//! four (interval, noise) configurations run in parallel through the
//! sweep runner.

use tsn_experiments::json::{Json, ToJson};
use tsn_experiments::limits::workers_from_env;
use tsn_experiments::util::dump_json;
use tsn_sim::sweep::run_sweep;
use tsn_switch::time_sync::{ClockModel, SyncConfig, SyncDomain};
use tsn_types::{SimDuration, SimTime};

struct SyncResult {
    sync_interval_ms: u64,
    timestamp_noise_ns: f64,
    worst_error_ns: f64,
    per_hop_error_ns: Vec<f64>,
}

impl ToJson for SyncResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sync_interval_ms", self.sync_interval_ms.to_json()),
            ("timestamp_noise_ns", self.timestamp_noise_ns.to_json()),
            ("worst_error_ns", self.worst_error_ns.to_json()),
            ("per_hop_error_ns", self.per_hop_error_ns.to_json()),
        ])
    }
}

fn run(interval_ms: u64, noise_ns: f64) -> tsn_types::TsnResult<SyncResult> {
    let config = SyncConfig {
        sync_interval: SimDuration::from_millis(interval_ms),
        timestamp_noise_ns: noise_ns,
    };
    let clocks: Vec<ClockModel> = (0..6)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            ClockModel::new(
                sign * (15.0 + 11.0 * i as f64),
                sign * 250_000.0 * (i + 1) as f64,
            )
        })
        .collect();
    let mut domain = SyncDomain::chain(clocks, config, SimDuration::from_nanos(50))?;
    // Converge for one second, then measure for another second at 1 ms
    // granularity.
    domain.run_until(SimTime::from_millis(1000));
    let mut worst = 0.0f64;
    let mut per_hop = vec![0.0f64; 6];
    for ms in 1000..2000 {
        let t = SimTime::from_millis(ms);
        domain.run_until(t);
        for (i, node) in domain.nodes().iter().enumerate() {
            let e = node.error_ns(t).abs();
            per_hop[i] = per_hop[i].max(e);
            worst = worst.max(e);
        }
    }
    Ok(SyncResult {
        sync_interval_ms: interval_ms,
        timestamp_noise_ns: noise_ns,
        worst_error_ns: worst,
        per_hop_error_ns: per_hop,
    })
}

fn main() {
    println!("gPTP precision across the 6-switch chain (paper claim: < 50ns)\n");
    println!(
        "{:>12} {:>10} {:>12}  per-hop worst (ns)",
        "interval", "noise", "worst(ns)"
    );
    let configs = [(31u64, 4.0f64), (125, 4.0), (31, 8.0), (125, 8.0)];
    let results: Vec<SyncResult> = run_sweep(
        &configs,
        workers_from_env(),
        |_idx, &(interval_ms, noise_ns)| run(interval_ms, noise_ns),
    )
    .into_iter()
    .map(|r| r.expect("sync domain runs"))
    .collect();
    for r in &results {
        println!(
            "{:>10}ms {:>8}ns {:>12.1}  {}",
            r.sync_interval_ms,
            r.timestamp_noise_ns,
            r.worst_error_ns,
            r.per_hop_error_ns
                .iter()
                .map(|e| format!("{e:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    let best = results
        .iter()
        .map(|r| r.worst_error_ns)
        .fold(f64::MAX, f64::min);
    println!(
        "\nbest configuration worst-case error: {best:.1}ns ({})",
        if best < 50.0 {
            "meets the paper's <50ns"
        } else {
            "misses 50ns"
        }
    );
    dump_json("sync_precision", &results);
}
