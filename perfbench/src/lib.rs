//! End-to-end and per-layer benchmark of the TSN-Builder reproduction.
//!
//! Three closed-loop workloads, each generated from one seed:
//!
//! - [`plant`]: what-if answers on a 100k-flow plant (reconfigure +
//!   one plant period of simulation).
//! - [`dse`]: cold design-space-search batches of 300 queries.
//! - [`customize`]: the paper's Fig. 1 pipeline, one request at a time
//!   (derive → BRAM report → HDL emit and check → simulate).
//!
//! Each workload sets up several times (the median is `setup_s`), then
//! runs ops back to back for the requested number of seconds. Only the
//! work a caller waits for is timed; every op's output is checked right
//! after its timer stops. Deterministic outputs (BRAM cost, simulated
//! counters) are summarized over the workload's distinct inputs, so they
//! repeat exactly for a seed no matter how many ops fit in the run.
//!
//! A traced run alternates blocks of traced and untraced ops; spans from
//! the traced blocks give per-layer times, and the two halves give the
//! tracing overhead. See `README.md` in this directory.

pub mod customize;
pub mod dse;
pub mod plant;
pub mod trace;

use std::time::Instant;

use tsn_builder::{workloads, DeriveOptions, TsnBuilder};
use tsn_resource::AllocationPolicy;
use tsn_sim::SimReport;
use tsn_topology::presets;
use tsn_types::SimDuration;

pub use trace::{Layer, Span, Tracer};

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the op loop measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Everything a workload hands back for reporting.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// The op loop.
    pub measured: Measured,
    /// The percentile reported as `op_ms_tail` (fixed per workload so it
    /// has at least ten samples beyond it in a normal run).
    pub tail_quantile: f64,
    /// Answers one op delivers (what-if answers, DSE queries, requests).
    pub answers_per_op: f64,
    /// Mean BRAM36 blocks per distinct answer.
    pub answer_bram36: f64,
    /// `VmHWM` after the op loop, MiB.
    pub peak_rss_mib: f64,
    /// Checks made once per run, outside timing.
    pub run_checks: Vec<(&'static str, Result<(), String>)>,
    /// Per-layer values this workload measures, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

/// Timings and failures of the op loop.
#[derive(Debug, Default)]
pub struct Measured {
    /// Timed section of each untraced op, ns.
    pub untraced_ns: Vec<u64>,
    /// Timed section of each traced op, ns.
    pub traced_ns: Vec<u64>,
    /// Ops run, including checked ops run outside the timed loop.
    pub attempted: u64,
    /// Ops whose call errored or whose output check failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Measured {
    /// Records one op's check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Runs `setup` `count` times, timing each, and keeps the last state.
/// Earlier states are dropped before the next set-up starts.
///
/// # Errors
///
/// The first set-up error.
pub fn setup_repeated<S>(
    count: usize,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    let mut state = None;
    for _ in 0..count.max(1) {
        drop(state.take());
        let start = Instant::now();
        let s = setup(tracer)?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// Runs ops back to back until `cfg.seconds` have passed. In a traced
/// run, blocks of `block` consecutive ops alternate untraced and traced,
/// so both halves see the same mix of inputs. `op` gets the op index and
/// returns its timed section (ns) plus its check outcome.
pub fn measure(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    block: usize,
    mut op: impl FnMut(usize, &mut Tracer) -> (u64, Result<(), String>),
) -> Measured {
    let mut measured = Measured::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && (i / block.max(1)) % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_op(i as u64 + 1);
        let (ns, outcome) = op(i, tracer);
        if traced {
            measured.traced_ns.push(ns);
        } else {
            measured.untraced_ns.push(ns);
        }
        measured.record(outcome);
        i += 1;
    }
    tracer.set_enabled(false);
    measured
}

/// Times `f` as one op: the `op` span covers exactly the timed section.
pub fn timed<R>(tracer: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
    let id = tracer.enter("op", Layer::Bench);
    let start = Instant::now();
    let out = f(tracer);
    let ns = start.elapsed().as_nanos() as u64;
    tracer.exit(id);
    (out, ns)
}

/// The simulated outcome of one run: everything the checks compare and
/// the per-layer counters report. Equal summaries mean the same answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Events the loop processed.
    pub events: u64,
    /// TS frames delivered.
    pub delivered: u64,
    /// TS frames lost.
    pub ts_lost: u64,
    /// TS deadline misses.
    pub deadline_misses: u64,
    /// TS latency percentiles, ns (0 when nothing was delivered).
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Highest per-queue occupancy anywhere.
    pub queue_high_water: usize,
    /// Frames the switches received.
    pub frames_received: u64,
    /// Frames the switches transmitted.
    pub frames_transmitted: u64,
    /// Kicks the loop avoided scheduling.
    pub kicks_suppressed: u64,
    /// Kicks it scheduled (port + host).
    pub kicks_scheduled: u64,
}

impl RunSummary {
    /// Summarizes a finished run.
    #[must_use]
    pub fn of(report: &SimReport) -> Self {
        let ns = |d: Option<SimDuration>| d.map_or(0, SimDuration::as_nanos);
        RunSummary {
            events: report.events_processed,
            delivered: report.ts_latency().count(),
            ts_lost: report.ts_lost(),
            deadline_misses: report.ts_deadline_misses(),
            p50_ns: ns(report.ts_p50()),
            p99_ns: ns(report.ts_p99()),
            p999_ns: ns(report.ts_p999()),
            queue_high_water: report.max_queue_high_water,
            frames_received: report.switch_stats.received,
            frames_transmitted: report.switch_stats.transmitted,
            kicks_suppressed: report.events.kicks_suppressed,
            kicks_scheduled: report.events.port_kicks + report.events.host_kicks,
        }
    }
}

/// Checks an op's answer against the first answer seen for the same
/// input, storing it when there is none yet.
///
/// # Errors
///
/// When the two differ.
pub fn check_repeat<T: PartialEq + std::fmt::Debug>(
    answer: T,
    first: &mut Option<T>,
    what: &str,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(answer);
            Ok(())
        }
        Some(seen) if *seen == answer => Ok(()),
        Some(seen) => Err(format!(
            "{what}: answer changed between ops: {seen:?} then {answer:?}"
        )),
    }
}

/// Per-layer simulator counters, averaged over distinct inputs; `run_ms`
/// is the mean traced `sim.run` time for the ns-per-event figure.
#[must_use]
pub fn sim_counters(summaries: &[&RunSummary], run_ms: f64) -> Vec<(&'static str, f64)> {
    let n = summaries.len().max(1) as f64;
    let mean = |f: fn(&RunSummary) -> u64| summaries.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    let events = mean(|s| s.events);
    let delivered = mean(|s| s.delivered);
    let suppressed = mean(|s| s.kicks_suppressed);
    let scheduled = mean(|s| s.kicks_scheduled);
    let high_water = summaries.iter().map(|s| s.queue_high_water).max();
    vec![
        ("sim.run_ms", run_ms),
        ("sim.events", events),
        ("sim.events_per_ts_frame", ratio(events, delivered)),
        (
            "sim.kicks_suppressed_ratio",
            ratio(suppressed, suppressed + scheduled),
        ),
        ("sim.ns_per_event", ratio(run_ms * 1e6, events)),
        ("sim.queue_high_water", high_water.unwrap_or(0) as f64),
        ("switch.frames_received", mean(|s| s.frames_received)),
        ("switch.frames_transmitted", mean(|s| s.frames_transmitted)),
    ]
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q` quantile of `values` (linear interpolation between the
/// closest ranks, as `numpy.quantile` does by default).
#[must_use]
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

/// Median of floating-point samples.
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 off Linux.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The paper anchor (Table III): `DeriveOptions::paper()` on ring(6,3)
/// with 32 IEC 60802 flows (seed 42) needs 2106.0 KB and saves 80.53%
/// against the BCM53154 baseline.
///
/// # Errors
///
/// When the derivation fails or either number is off.
pub fn paper_anchor() -> Result<(), String> {
    let topo = presets::ring(6, 3).map_err(|e| e.to_string())?;
    let flows = workloads::iec60802_ts_flows(&topo, 32, 42).map_err(|e| e.to_string())?;
    let customization = TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))
        .and_then(|b| b.derive(&DeriveOptions::paper()))
        .map_err(|e| e.to_string())?;
    let kb = customization
        .usage_report(AllocationPolicy::PaperAccounting)
        .total_kb();
    let savings = customization.savings_vs_cots(AllocationPolicy::PaperAccounting);
    if kb != 2106.0 || (savings - 80.53).abs() >= 0.01 {
        return Err(format!(
            "paper anchor: ring(6,3) needs {kb} KB saving {savings:.2}% (Table III: 2106.0 KB, 80.53%)"
        ));
    }
    Ok(())
}
