//! Shared plumbing for the experiment regenerators.

use crate::json::{Json, ToJson};
use std::path::PathBuf;
use std::sync::Arc;
use tsn_builder::{workloads, AppRequirements, ScenarioOutcome};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_sim::sweep::SweepError;
use tsn_sim::SimReport;
use tsn_topology::{LinkDirection, Topology};
use tsn_types::{DataRate, FlowSet, NodeId, SimDuration, TrafficClass, TsnResult};

/// One measured point of a latency figure.
#[derive(Debug, Clone)]
pub struct QosPoint {
    /// X-axis label (hops, bytes, slot µs, background Mbps, …).
    pub x: u64,
    /// Mean TS latency, µs.
    pub mean_us: f64,
    /// Jitter (mean per-flow latency std-dev), µs.
    pub jitter_us: f64,
    /// Minimum TS latency, µs.
    pub min_us: f64,
    /// Maximum TS latency, µs.
    pub max_us: f64,
    /// Median TS latency (streaming log2-histogram estimate), µs.
    pub p50_us: f64,
    /// 99th-percentile TS latency (streaming log2-histogram estimate), µs.
    pub p99_us: f64,
    /// 99.9th-percentile TS latency (streaming log2-histogram estimate),
    /// µs.
    pub p999_us: f64,
    /// TS frames lost.
    pub loss: u64,
    /// TS frames injected.
    pub injected: u64,
}

impl QosPoint {
    /// Extracts the TS QoS numbers from a finished run.
    #[must_use]
    pub fn from_report(x: u64, report: &SimReport) -> Self {
        let ts = report.ts_latency();
        QosPoint {
            x,
            mean_us: ts.mean_us(),
            jitter_us: report
                .analyzer
                .class_mean_flow_jitter_ns(TrafficClass::TimeSensitive)
                / 1000.0,
            min_us: ts.min().map_or(0.0, |d| d.as_micros_f64()),
            max_us: ts.max().map_or(0.0, |d| d.as_micros_f64()),
            p50_us: ts.p50().map_or(0.0, |d| d.as_micros_f64()),
            p99_us: ts.p99().map_or(0.0, |d| d.as_micros_f64()),
            p999_us: ts.p999().map_or(0.0, |d| d.as_micros_f64()),
            loss: report.ts_lost(),
            injected: report.ts_injected(),
        }
    }
}

impl ToJson for QosPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("x", self.x.to_json()),
            ("mean_us", self.mean_us.to_json()),
            ("jitter_us", self.jitter_us.to_json()),
            ("min_us", self.min_us.to_json()),
            ("max_us", self.max_us.to_json()),
            ("p50_us", self.p50_us.to_json()),
            ("p99_us", self.p99_us.to_json()),
            ("p999_us", self.p999_us.to_json()),
            ("loss", self.loss.to_json()),
            ("injected", self.injected.to_json()),
        ])
    }
}

/// Prints a QoS series as an aligned table.
pub fn print_series(title: &str, x_label: &str, points: &[QosPoint]) {
    println!("\n== {title} ==");
    println!(
        "{x_label:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "avg(us)", "jitter(us)", "min(us)", "max(us)", "p50(us)", "p99(us)", "loss", "injected"
    );
    for p in points {
        println!(
            "{:>12} {:>12.1} {:>12.2} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8} {:>10}",
            p.x, p.mean_us, p.jitter_us, p.min_us, p.max_us, p.p50_us, p.p99_us, p.loss, p.injected
        );
    }
}

/// Writes an experiment's JSON record to `results/<name>.json`, so
/// EXPERIMENTS.md entries are reproducible.
pub fn dump_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, value.to_json().pretty()).is_ok() {
        println!("[results written to {}]", path.display());
    }
}

/// Unwraps a sweep's results, panicking with the failing scenario's label
/// and error on the first bad entry (a failed build is a broken
/// experiment, not a user error). Results keep their input order.
#[must_use]
pub fn expect_outcomes(
    what: &str,
    results: Vec<Result<ScenarioOutcome, SweepError>>,
) -> Vec<ScenarioOutcome> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("{what}: scenario #{i} failed: {e}")))
        .collect()
}

/// The requirements of one experiment network at the paper's 50 ns sync
/// precision, validated and routed once, for every sweep point over it
/// to share.
///
/// # Panics
///
/// When the flows do not fit the topology (a broken experiment, not a
/// user error).
#[must_use]
pub fn requirements(topology: Topology, flows: FlowSet) -> Arc<AppRequirements> {
    let requirements = AppRequirements::new(topology, flows, SimDuration::from_nanos(50));
    Arc::new(requirements.expect("experiment requirements are valid"))
}

/// The figures' network and workload: a unidirectional ring of
/// `switches` switches with a *tester* host on switch 0 and one
/// *analyzer* host on switch `analyzer_switch` (switch 0 too in Fig.
/// 7(a)'s 1-hop case), and `ts` TS flows of `bytes`-byte frames every
/// 8 ms from tester to analyzer. The tester and the analyzer are the
/// topology's first and second host, the pair
/// [`tsn_builder::workloads::background_flows`] loads.
///
/// # Panics
///
/// When the ring or the flows do not build (a broken experiment, not a
/// user error).
#[must_use]
pub fn fixed_path(
    switches: usize,
    analyzer_switch: usize,
    ts: u32,
    bytes: u32,
) -> (Topology, FlowSet) {
    let build = || -> TsnResult<(Topology, FlowSet)> {
        let mut topo = Topology::new();
        let sw: Vec<NodeId> = (0..switches)
            .map(|i| topo.add_switch(format!("sw{i}")))
            .collect();
        for i in 0..switches {
            topo.connect_with(
                sw[i],
                sw[(i + 1) % switches],
                DataRate::gbps(1),
                SimDuration::from_nanos(50),
                LinkDirection::AToB,
            )?;
        }
        let tester = topo.add_host("tester");
        topo.connect(tester, sw[0], DataRate::gbps(1))?;
        let analyzer = topo.add_host("analyzer0");
        topo.connect(analyzer, sw[analyzer_switch], DataRate::gbps(1))?;
        let period = SimDuration::from_millis(8);
        let flows = workloads::ts_flows_fixed_path(ts, tester, analyzer, bytes, period)?;
        Ok((topo, flows))
    };
    build().expect("experiment network builds")
}

/// The default measurement config used by the figures: 100 ms of
/// traffic, gPTP sync.
#[must_use]
pub fn figure_config(slot: SimDuration, resources: tsn_resource::ResourceConfig) -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.slot = slot;
    config.resources = resources;
    config.duration = SimDuration::from_millis(100);
    config.sync = SyncSetup::default();
    config
}
