//! Benchmarks for the TSN-Builder reproduction, one per paper
//! table/figure plus ablations — built on a small self-contained harness
//! (the workspace builds offline, so criterion is not available).
//!
//! Run `cargo bench --workspace`. Groups map to the paper's artifacts:
//!
//! * `benches/resources.rs` — Table I / Table III accounting plus the
//!   BRAM allocation-policy ablation;
//! * `benches/templates.rs` — per-template datapath costs (lookup,
//!   classification, gate control, scheduling) and HDL emission;
//! * `benches/planning.rs` — CQF slot planning, ITP strategies, the full
//!   derivation pipeline;
//! * `benches/simulation.rs` — end-to-end network runs behind Fig. 2 and
//!   Fig. 7;
//! * `benches/sweep.rs` — scenario-sweep scaling: one Fig. 7-style
//!   8-scenario sweep at 1/2/4/… workers, reporting the speedup;
//! * `benches/scale.rs`, `benches/dse.rs` — the 10k/100k-flow plant,
//!   its incremental reconfiguration, and the DSE service's batches.
//!
//! Filter by substring like criterion: `cargo bench -p tsn-bench --bench
//! planning -- itp` runs only benchmarks whose name contains `itp`.
//! `TSN_BENCH_MS` (default 200) sets the time budget. The simulation,
//! scale and DSE benches gate every run through [`record`].

use std::time::Instant;

pub mod record;
pub use record::{enforce, Record};

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Samples taken.
    pub samples: usize,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's time per iteration, nanoseconds.
    pub min_ns: f64,
}

/// Formats nanoseconds human-readably (ns/µs/ms/s).
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// The benchmark runner: name filtering (positional CLI args, substring
/// match, as with criterion) and a per-benchmark time budget.
pub struct Runner {
    filters: Vec<String>,
    budget_ms: u64,
}

impl Runner {
    /// A runner configured from the process arguments (skipping `--…`
    /// flags cargo passes through) and `TSN_BENCH_MS`.
    #[must_use]
    pub fn from_env() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        let budget_ms = std::env::var("TSN_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        Runner { filters, budget_ms }
    }

    /// The per-benchmark time budget in milliseconds (`TSN_BENCH_MS`).
    #[must_use]
    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }

    /// Whether `name` passes the CLI filter.
    #[must_use]
    pub fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Measures `f`, prints one result line, and returns the measurement
    /// (`None` when filtered out).
    ///
    /// The closure runs a calibration pass first, then `samples` batches
    /// sized to fit the time budget; the median batch is the headline
    /// number, so one slow outlier (page fault, scheduler blip) does not
    /// skew the result.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Option<BenchResult> {
        if !self.selected(name) {
            return None;
        }
        // Calibration: how long does one call take?
        let calibration_start = Instant::now();
        std::hint::black_box(f());
        let one = calibration_start.elapsed().as_nanos().max(1) as u64;

        let budget_ns = self.budget_ms * 1_000_000;
        const SAMPLES: usize = 10;
        let iters = (budget_ns / SAMPLES as u64 / one).clamp(1, 1_000_000);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_owned(),
            iters_per_sample: iters,
            samples: SAMPLES,
            median_ns: per_iter_ns[SAMPLES / 2],
            min_ns: per_iter_ns[0],
        };
        println!(
            "{:<44} median {:>10}  min {:>10}  ({} x {} iters)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters_per_sample,
        );
        Some(result)
    }

    /// Times a single call of `f` (no batching) — for long-running
    /// benchmarks like whole sweeps where one run is the sample.
    pub fn time_once<R>(&self, mut f: impl FnMut() -> R) -> (f64, R) {
        let start = Instant::now();
        let value = f();
        (start.elapsed().as_nanos() as f64, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_matches_substrings() {
        let runner = Runner {
            filters: vec!["itp".into()],
            budget_ms: 1,
        };
        assert!(runner.selected("itp/greedy"));
        assert!(runner.selected("scaling_itp_1024"));
        assert!(!runner.selected("cqf/choose_slot"));
        let all = Runner {
            filters: vec![],
            budget_ms: 1,
        };
        assert!(all.selected("anything"));
    }

    #[test]
    fn bench_measures_and_reports() {
        let runner = Runner {
            filters: vec![],
            budget_ms: 5,
        };
        let mut calls = 0u64;
        let result = runner
            .bench("selftest/counter", || {
                calls += 1;
                calls
            })
            .expect("not filtered");
        assert!(calls > result.samples as u64, "calibration + samples ran");
        assert!(result.median_ns > 0.0);
        assert!(result.min_ns <= result.median_ns);
    }

    #[test]
    fn formatting_picks_sane_units() {
        assert_eq!(fmt_ns(12.0), "12.0ns");
        assert_eq!(fmt_ns(12_500.0), "12.50us");
        assert_eq!(fmt_ns(12_500_000.0), "12.50ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50s");
    }
}
