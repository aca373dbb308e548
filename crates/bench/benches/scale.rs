//! Scale benchmark: the large-plant family at 10k and 100k flows (1M
//! behind `TSN_SCALE_1M=1`), tracking simulation throughput (events/sec)
//! and peak RSS (`VmHWM`), plus the incremental-reconfiguration cases
//! comparing [`NetworkTemplate::reconfigure`] against a from-scratch
//! `Network::build` on the same plant. Writes `BENCH_7.json` (flow
//! cases) and `BENCH_10.json` (reconfig cases) at the repo root; the
//! recorded files are produced at the full `TSN_BENCH_MS=2000` budget
//! and CI smokes the 10k cases against events/sec floors, a peak-RSS
//! ceiling, the pinned events/sec baselines (geomean ≥ 0.95×) and a
//! reconfigure-speedup floor.
//!
//! Unlike the iteration benches, each case here is a single timed
//! build + run: a 100k-flow plant takes seconds end to end, so medians
//! over dozens of iterations are not affordable — and a single
//! discrete-event run of ~10⁶ events is already an average over that
//! many scheduler operations. Every case (100k included) re-runs under
//! the binary-heap event queue and asserts the reports stay
//! byte-identical, so the determinism contract is checked
//! at scale on every bench run, not just on the small golden tests.
//! Reports are compared by a streamed digest of their full `Debug`
//! rendering — no second report or rendered string is ever held — so
//! the 100k check costs no extra peak RSS.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::sync::Arc;
use std::time::Instant;
use tsn_bench::{fmt_ns, Runner};
use tsn_builder::plant::{large_plant, LargePlant};
use tsn_sim::network::{ConfigDelta, Network, NetworkTemplate};
use tsn_sim::{EventQueueKind, SimReport};

/// Pinned events/sec per flow case, recorded on this machine at
/// `TSN_BENCH_MS=2000` and re-pinned (from 3.8M / 1.0M) when the
/// hot-path flattening landed — quiet-host full-budget runs now measure
/// ~6.8–7.2M / ~1.9–2.2M. The CI gate keeps the geomean of
/// current/baseline ≥ 0.95.
const BASELINE_EVENTS_PER_SEC: &[(&str, f64)] = &[
    ("scale/flows/10k", 6_000_000.0),
    ("scale/flows/100k", 1_800_000.0),
];

/// Pinned events/sec for the reconfigure-path runs (BENCH_10.json),
/// recorded at `TSN_BENCH_MS=2000` when the incremental path landed
/// (quiet-host full-budget runs: ~7.5M / ~2.7M; pins leave headroom for
/// this host's scheduling noise).
const BASELINE_RECONFIG_EVENTS_PER_SEC: &[(&str, f64)] = &[
    ("reconfig/flows/10k", 5_500_000.0),
    ("reconfig/flows/100k", 2_200_000.0),
];

/// The events/sec BENCH_7.json recorded at 10k/100k flows *before* the
/// hot-path flattening — the fixed base the ≥ 1.4× acceptance target and
/// the 10k→100k slowdown comparison are measured against.
const BENCH7_PIN_10K: f64 = 4_041_109.0;
const BENCH7_PIN_100K: f64 = 1_426_799.0;

/// `VmHWM` (peak resident set) in bytes from `/proc/self/status`;
/// `None` off Linux. Monotone over the process lifetime, so cases must
/// run smallest-first for per-case readings to mean anything.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A 64-bit digest of the report's complete `Debug` rendering, streamed
/// through a fixed-key `DefaultHasher` (`SipHash-1-3` with zero keys —
/// stable across processes). Two reports digest equal iff they render
/// byte-identically, but neither a second report nor its multi-megabyte
/// rendering ever exists in memory.
fn report_digest(report: &SimReport) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = HashWriter(std::collections::hash_map::DefaultHasher::new());
    write!(sink, "{report:?}").expect("digest sink never fails");
    sink.0.finish()
}

struct ScaleCase {
    name: String,
    flows: u32,
    cells: usize,
    build_ns: u64,
    run_ns: u64,
    events: u64,
    events_per_sec: f64,
    peak_rss_bytes: Option<u64>,
    p99_us: f64,
    determinism_checked: bool,
}

fn run_case(name: &str, flows: u32, repeats: u32, check_determinism: bool) -> ScaleCase {
    // Best-of-`repeats`: one run is one measurement of ~10⁵–10⁶
    // scheduler operations, but wall-clock noise (cold caches, CI
    // neighbours) still moves a single run by tens of percent. The
    // fastest repetition is the stable, gateable number. Each report is
    // reduced to a small summary (digest + the gated metrics) and
    // dropped before the next repetition, so no multi-hundred-megabyte
    // report distorts the allocator during a timed section.
    struct RunSummary {
        digest: u64,
        events: u64,
        ts_lost: u64,
        deadline_misses: u64,
        p99_us: f64,
    }
    fn summarize(report: &SimReport) -> RunSummary {
        RunSummary {
            digest: report_digest(report),
            events: report.events_processed,
            ts_lost: report.ts_lost(),
            deadline_misses: report.ts_deadline_misses(),
            p99_us: report.ts_p99().map_or(0.0, |d| d.as_micros_f64()),
        }
    }
    let mut build_ns = u64::MAX;
    let mut run_ns = u64::MAX;
    let mut first: Option<RunSummary> = None;
    let mut reference: Option<LargePlant> = None;
    let mut cells = 0;
    for rep in 0..repeats.max(1) {
        let plant = large_plant(flows).expect("plant builds");
        cells = plant.dims.cells;
        // The reference plant for the backend byte-identity check is
        // cloned exactly once (outside the timed section).
        if check_determinism && rep == 0 {
            reference = Some(plant.clone());
        }
        let build_start = Instant::now();
        let network = plant.into_network().expect("network builds");
        build_ns = build_ns.min(build_start.elapsed().as_nanos() as u64);

        let run_start = Instant::now();
        let report = network.run();
        run_ns = run_ns.min(run_start.elapsed().as_nanos() as u64);
        let summary = summarize(&report);
        if rep == 0 {
            if std::env::var("TSN_SCALE_DEBUG").is_ok() {
                println!("{name}: {:?}", report.events);
            }
            first = Some(summary);
        } else {
            assert_eq!(
                summary.digest,
                first.as_ref().expect("set on rep 0").digest,
                "{name}: repetition {rep} diverged from the first run"
            );
        }
    }
    let summary = first.expect("at least one repetition");

    assert_eq!(summary.ts_lost, 0, "{name}: plant loses TS frames");
    assert_eq!(summary.deadline_misses, 0, "{name}: plant misses deadlines");
    let events = summary.events;
    let events_per_sec = events as f64 / (run_ns as f64 / 1e9);
    let p99_us = summary.p99_us;
    let peak_rss = peak_rss_bytes();
    if flows <= 100_000 {
        if let Some(rss) = peak_rss {
            assert!(
                rss < 1 << 30,
                "{name}: peak RSS {}MiB breaches the 1 GiB scale budget",
                rss >> 20
            );
        }
    }

    if let Some(reference) = reference {
        check_byte_identity(&reference, summary.digest);
    }

    ScaleCase {
        name: name.to_owned(),
        flows,
        cells,
        build_ns,
        run_ns,
        events,
        events_per_sec,
        peak_rss_bytes: peak_rss,
        p99_us,
        determinism_checked: check_determinism,
    }
}

/// Re-runs the plant under the reference binary-heap event queue; the
/// report must digest-identically to the calendar-queue baseline. The
/// variant runs after the baseline report is dropped, so the peak-RSS
/// cost of the check is one extra resident plant, not a second report.
fn check_byte_identity(plant: &LargePlant, baseline_digest: u64) {
    let mut variant = plant.clone();
    variant.config.event_queue = EventQueueKind::BinaryHeap;
    let report = variant.into_network().expect("network builds").run();
    assert_eq!(
        report_digest(&report),
        baseline_digest,
        "binary-heap event queue diverged from the calendar-queue report"
    );
}

struct ReconfigCase {
    name: String,
    flows: u32,
    template_build_ns: u64,
    rebuild_ns: u64,
    reconfigure_ns: u64,
    speedup: f64,
    run_ns: u64,
    events: u64,
    events_per_sec: f64,
    byte_identical: bool,
}

/// Times a from-scratch `Network::build` against an incremental
/// `NetworkTemplate::reconfigure` carrying a `ResourceConfig` delta (the
/// DSE/sweep inner loop), then runs one reconfigured instance to both
/// measure reconfigure-path throughput and prove its report digests
/// identically to the from-scratch build's.
fn run_reconfig_case(name: &str, flows: u32, repeats: u32) -> ReconfigCase {
    let plant = large_plant(flows).expect("plant builds");
    let template_start = Instant::now();
    let template = Arc::new(
        NetworkTemplate::new(
            plant.topology.clone(),
            plant.flows.clone(),
            &plant.offsets,
            plant.config.clone(),
        )
        .expect("template builds"),
    );
    let template_build_ns = template_start.elapsed().as_nanos() as u64;
    // A delta that re-submits the resource configuration: the same work
    // a sweep/DSE candidate swap performs, with an effective config
    // identical to the plant's so the from-scratch comparison below is
    // exact.
    let delta = ConfigDelta::resources(plant.config.resources.clone());

    let mut rebuild_ns = u64::MAX;
    let mut reconfigure_ns = u64::MAX;
    for _ in 0..repeats.max(1) {
        let topology = plant.topology.clone();
        let flow_set = plant.flows.clone();
        let config = plant.config.clone();
        let build_start = Instant::now();
        let network =
            Network::build(topology, flow_set, &plant.offsets, config).expect("network builds");
        rebuild_ns = rebuild_ns.min(build_start.elapsed().as_nanos() as u64);
        drop(network);

        let reconfig_start = Instant::now();
        let network = template.reconfigure(&delta).expect("reconfigure succeeds");
        reconfigure_ns = reconfigure_ns.min(reconfig_start.elapsed().as_nanos() as u64);
        drop(network);
    }

    // Full runs through each path: the from-scratch digest is the
    // oracle every timed reconfigure-path run must match. Best-of for
    // the run timing, the same noise-floor estimator as `run_case` —
    // on this single-CPU host a repetition is occasionally descheduled
    // for tens of percent of its wall-clock, and the minimum is the
    // only estimator that reliably rejects that.
    let scratch_digest = {
        let network = Network::build(
            plant.topology.clone(),
            plant.flows.clone(),
            &plant.offsets,
            plant.config.clone(),
        )
        .expect("network builds");
        report_digest(&network.run())
    };
    let mut run_ns = u64::MAX;
    let mut events = 0;
    for _ in 0..repeats.max(1) {
        let network = template.reconfigure(&delta).expect("reconfigure succeeds");
        let run_start = Instant::now();
        let report = network.run();
        run_ns = run_ns.min(run_start.elapsed().as_nanos() as u64);
        events = report.events_processed;
        assert_eq!(
            report_digest(&report),
            scratch_digest,
            "{name}: reconfigure-path report diverged from the from-scratch build"
        );
    }
    let byte_identical = true;
    ReconfigCase {
        name: name.to_owned(),
        flows,
        template_build_ns,
        rebuild_ns,
        reconfigure_ns,
        speedup: rebuild_ns as f64 / reconfigure_ns as f64,
        run_ns,
        events,
        events_per_sec: events as f64 / (run_ns as f64 / 1e9),
        byte_identical,
    }
}

fn write_bench7_json(cases: &[ScaleCase], budget_ms: u64) {
    let baselines: std::collections::HashMap<&str, f64> =
        BASELINE_EVENTS_PER_SEC.iter().copied().collect();
    let mut entries = Vec::new();
    let mut ratios = Vec::new();
    for c in cases {
        let baseline = baselines.get(c.name.as_str()).copied();
        let ratio = baseline.map(|b| c.events_per_sec / b);
        if let Some(r) = ratio {
            ratios.push(r);
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"flows\": {}, \"cells\": {}, \"build_ns\": {}, \
             \"run_ns\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"peak_rss_bytes\": {}, \"p99_us\": {:.1}, \"determinism_checked\": {}, \
             \"baseline_events_per_sec\": {}, \"vs_baseline\": {}}}",
            c.name,
            c.flows,
            c.cells,
            c.build_ns,
            c.run_ns,
            c.events,
            c.events_per_sec,
            c.peak_rss_bytes.map_or("null".into(), |b| b.to_string()),
            c.p99_us,
            c.determinism_checked,
            baseline.map_or("null".into(), |b| format!("{b:.0}")),
            ratio.map_or("null".into(), |r| format!("{r:.3}")),
        ));
    }
    let geomean = geomean_str(&ratios);
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"baseline\": \"same machine, TSN_BENCH_MS=2000\",\n  \
         \"budget_ms\": {budget_ms},\n  \"events_per_sec_geomean_vs_baseline\": {geomean},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (events/sec geomean {geomean}x vs baseline)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn geomean_str(ratios: &[f64]) -> String {
    if ratios.is_empty() {
        "null".to_owned()
    } else {
        let g = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        format!("{g:.3}")
    }
}

/// The DSE bench's recorded queries/sec geomean (BENCH_9.json), so the
/// reconfigure summary records all three acceptance numbers in one
/// place. `null` when the file is absent or unparsable.
fn bench9_dse_geomean() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return "null".to_owned();
    };
    text.lines()
        .find_map(|l| {
            let rest = l
                .trim()
                .strip_prefix("\"queries_per_sec_geomean_vs_baseline\":")?;
            let value: f64 = rest.trim().trim_end_matches(',').parse().ok()?;
            Some(format!("{value:.3}"))
        })
        .unwrap_or_else(|| "null".to_owned())
}

fn write_bench10_json(cases: &[ReconfigCase], budget_ms: u64) {
    let baselines: std::collections::HashMap<&str, f64> =
        BASELINE_RECONFIG_EVENTS_PER_SEC.iter().copied().collect();
    let mut entries = Vec::new();
    let mut ratios = Vec::new();
    for c in cases {
        let baseline = baselines.get(c.name.as_str()).copied();
        let ratio = baseline.map(|b| c.events_per_sec / b);
        if let Some(r) = ratio {
            ratios.push(r);
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"flows\": {}, \"template_build_ns\": {}, \
             \"rebuild_ns\": {}, \"reconfigure_ns\": {}, \"reconfigure_speedup\": {:.2}, \
             \"run_ns\": {}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"byte_identical\": {}, \"baseline_events_per_sec\": {}, \"vs_baseline\": {}}}",
            c.name,
            c.flows,
            c.template_build_ns,
            c.rebuild_ns,
            c.reconfigure_ns,
            c.speedup,
            c.run_ns,
            c.events,
            c.events_per_sec,
            c.byte_identical,
            baseline.map_or("null".into(), |b| format!("{b:.0}")),
            ratio.map_or("null".into(), |r| format!("{r:.3}")),
        ));
    }
    let geomean = geomean_str(&ratios);
    // Acceptance summary: the 100k events/sec vs the pre-flattening
    // BENCH_7 pin, the 10k→100k per-event slowdown (BENCH_7 recorded
    // 2.83× before the flattening), the 100k reconfigure speedup, and
    // the DSE geomean cross-referenced from BENCH_9.json.
    let case_100k = cases.iter().find(|c| c.flows == 100_000);
    let vs_pin_100k = case_100k.map_or("null".to_owned(), |c| {
        format!("{:.3}", c.events_per_sec / BENCH7_PIN_100K)
    });
    let speedup_100k = case_100k.map_or("null".to_owned(), |c| format!("{:.2}", c.speedup));
    let slowdown = match (cases.iter().find(|c| c.flows == 10_000), case_100k) {
        (Some(a), Some(b)) => format!("{:.2}", a.events_per_sec / b.events_per_sec),
        _ => "null".to_owned(),
    };
    let bench7_slowdown = BENCH7_PIN_10K / BENCH7_PIN_100K;
    let dse_geomean = bench9_dse_geomean();
    let json = format!(
        "{{\n  \"bench\": \"reconfig\",\n  \"baseline\": \"same machine, TSN_BENCH_MS=2000\",\n  \
         \"budget_ms\": {budget_ms},\n  \"events_per_sec_geomean_vs_baseline\": {geomean},\n  \
         \"events_per_sec_100k_vs_bench7_pin\": {vs_pin_100k},\n  \
         \"reconfigure_speedup_100k\": {speedup_100k},\n  \
         \"slowdown_10k_to_100k\": {slowdown},\n  \
         \"bench7_slowdown_10k_to_100k\": {bench7_slowdown:.2},\n  \
         \"dse_queries_per_sec_geomean_vs_baseline\": {dse_geomean},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (reconfigure speedup at 100k: {speedup_100k}x)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let runner = Runner::from_env();
    // Ascending flow counts: VmHWM is a process-lifetime high-water
    // mark, so each case's reading is only inflated by *smaller*
    // predecessors.
    let mut targets: Vec<(&str, u32, u32, bool)> = vec![
        ("scale/flows/10k", 10_000, 5, true),
        ("scale/flows/100k", 100_000, 3, true),
    ];
    if std::env::var("TSN_SCALE_1M").is_ok_and(|v| v == "1") {
        targets.push(("scale/flows/1m", 1_000_000, 1, false));
    }
    let mut cases = Vec::new();
    for (name, flows, repeats, check) in targets {
        if !runner.selected(name) {
            continue;
        }
        let case = run_case(name, flows, repeats, check);
        println!(
            "{:<24} build {:>10}  run {:>10}  {:>9} events  {:>12.0} events/sec  \
             rss {:>8}  p99 {:.1}us{}",
            case.name,
            fmt_ns(case.build_ns as f64),
            fmt_ns(case.run_ns as f64),
            case.events,
            case.events_per_sec,
            case.peak_rss_bytes
                .map_or("n/a".into(), |b| format!("{}MiB", b >> 20)),
            case.p99_us,
            if case.determinism_checked {
                "  [backends byte-identical]"
            } else {
                ""
            },
        );
        cases.push(case);
    }

    let reconfig_targets: Vec<(&str, u32, u32)> = vec![
        ("reconfig/flows/10k", 10_000, 5),
        ("reconfig/flows/100k", 100_000, 3),
    ];
    let mut reconfig_cases = Vec::new();
    for (name, flows, repeats) in reconfig_targets {
        if !runner.selected(name) {
            continue;
        }
        let case = run_reconfig_case(name, flows, repeats);
        println!(
            "{:<24} rebuild {:>10}  reconfigure {:>10}  speedup {:>6.2}x  \
             run {:>10}  {:>12.0} events/sec  [byte-identical]",
            case.name,
            fmt_ns(case.rebuild_ns as f64),
            fmt_ns(case.reconfigure_ns as f64),
            case.speedup,
            fmt_ns(case.run_ns as f64),
            case.events_per_sec,
        );
        reconfig_cases.push(case);
    }

    if cases.is_empty() && reconfig_cases.is_empty() {
        println!("scale: no case selected");
        return;
    }
    if !cases.is_empty() {
        write_bench7_json(&cases, runner.budget_ms());
    }
    if !reconfig_cases.is_empty() {
        write_bench10_json(&reconfig_cases, runner.budget_ms());
    }
}
