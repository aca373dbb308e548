//! `customize`: the paper's Fig. 1 pipeline, one request per op.
//!
//! Each request names a topology (ring(6,3), linear(5,3) or star(4,3))
//! and 32–256 IEC 60802 flows; every 5th request asks for TAS instead
//! of CQF. An op runs `TsnBuilder::derive` with
//! `DeriveOptions::automatic()`, the BRAM usage report, HDL emission,
//! the HDL parse + lint + cost-agreement check, and a 20 ms gPTP
//! simulation of the synthesized network. No work is shared between
//! requests.
//!
//! The stream cycles through a pool of [`POOL`] distinct requests. Flow
//! counts are spread evenly over 32..=256 and shuffled by the seed, so
//! every seed sends the same mix of sizes, families and gate modes in a
//! different order, on different flow placements.

use tsn_builder::{workloads, DeriveOptions, GateMode, TsnBuilder};
use tsn_hdl::{check_agreement, lint_modules, parse_modules};
use tsn_resource::{AllocationPolicy, CostKey};
use tsn_sim::network::SyncSetup;
use tsn_topology::{presets, Topology};
use tsn_types::{FlowSet, SimDuration, SplitMix64, TsnError};

use crate::{
    check_repeat, measure, paper_anchor, peak_rss_mib, ratio, setup_repeated, sim_counters, timed,
    Layer, RunConfig, RunSummary, Tracer, WorkloadRun,
};

/// Distinct requests in the stream.
pub const POOL: usize = 240;
/// Smallest and largest flow count of a request.
pub const FLOWS: (u32, u32) = (32, 256);
/// Simulated horizon per request.
pub const HORIZON: SimDuration = SimDuration::from_millis(20);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests run during set-up to warm caches and the allocator.
const WARM_UP: usize = 12;

/// One customization request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Topology family (`ring`, `linear` or `star`).
    pub kind: &'static str,
    /// The network.
    pub topology: Topology,
    /// Its TS flows.
    pub flows: FlowSet,
    /// TAS gate synthesis instead of CQF.
    pub tas: bool,
}

/// The seeded request pool, in stream order. Every 5th request uses
/// TAS. Sizes, families and the TAS flag form a fixed mix; the seed
/// shuffles the CQF and TAS requests separately and places their flows.
///
/// # Errors
///
/// Topology or flow generation failures.
pub fn requests(seed: u64, count: usize) -> Result<Vec<Request>, TsnError> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (lo, hi) = FLOWS;
    let steps = count.saturating_sub(1).max(1) as u32;
    let shape = |i: usize| (lo + (hi - lo) * i as u32 / steps, i % 3);
    let tas = |position: usize| position % 5 == 4;
    let mut shuffled = |mut shapes: Vec<(u32, usize)>| {
        // Fisher–Yates on the seed.
        for i in (1..shapes.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            shapes.swap(i, j);
        }
        shapes.into_iter()
    };
    let mut cqf = shuffled((0..count).filter(|&i| !tas(i)).map(shape).collect());
    let mut gated = shuffled((0..count).filter(|&i| tas(i)).map(shape).collect());
    (0..count)
        .map(|position| {
            let (flow_count, family) = if tas(position) {
                gated.next()
            } else {
                cqf.next()
            }
            .expect("one shape per position");
            let (kind, topology) = match family {
                0 => ("ring", presets::ring(6, 3)?),
                1 => ("linear", presets::linear(5, 3)?),
                _ => ("star", presets::star(4, 3)?),
            };
            let flows = workloads::iec60802_ts_flows(&topology, flow_count, rng.next_u64())?;
            Ok(Request {
                kind,
                topology,
                flows,
                tas: tas(position),
            })
        })
        .collect()
}

/// Everything a request's answer is checked and summarized by.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// BRAM36 blocks of the derived configuration.
    pub bram36: u64,
    /// Paper-accounting BRAM, KB.
    pub paper_kb: f64,
    /// Lines of emitted Verilog.
    pub hdl_lines: usize,
    /// Route-tree cache (hits, misses) while the network was built.
    pub route_cache: (u64, u64),
    /// The simulated outcome.
    pub sim: RunSummary,
}

/// Runs one request through the pipeline. The `op` span and the
/// returned time cover the pipeline only; the request's clone and the
/// answer checks stay outside.
fn customize(request: &Request, tracer: &mut Tracer) -> (Result<Answer, String>, u64) {
    let mut options = DeriveOptions::automatic();
    if request.tas {
        options.gate_mode = GateMode::Tas;
    }
    let (topology, flows) = (request.topology.clone(), request.flows.clone());
    let (outcome, ns) = timed(tracer, |t| -> Result<_, String> {
        let err = |stage: &'static str| move |e: TsnError| format!("{stage}: {e}");
        let customization = t
            .span("builder.derive", Layer::Builder, || {
                TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?.derive(&options)
            })
            .map_err(err("derive"))?;
        let usage = t.span("resource.usage_report", Layer::Resource, || {
            customization.usage_report(AllocationPolicy::PaperAccounting)
        });
        let bundle = t
            .span("hdl.generate", Layer::Hdl, || customization.generate_hdl())
            .map_err(err("generate_hdl"))?;
        let modules = t
            .span("hdl.parse", Layer::Hdl, || {
                parse_modules(&bundle.concatenated())
            })
            .map_err(err("parse_modules"))?;
        let findings = t.span("hdl.lint", Layer::Hdl, || lint_modules(&modules));
        let resources = &customization.derived().resources;
        let agreement = t.span("hdl.cost_check", Layer::Hdl, || {
            check_agreement(resources, &modules)
        });
        let network = t
            .span("builder.synthesize", Layer::Builder, || {
                customization.synthesize_network(HORIZON, SyncSetup::default())
            })
            .map_err(err("synthesize_network"))?;
        let report = t.span("sim.run", Layer::Sim, || network.run());
        Ok((customization, usage, bundle, findings, agreement, report))
    });
    let answer = outcome.and_then(
        |(customization, usage, bundle, findings, agreement, report)| {
            if let Some(finding) = findings.first() {
                return Err(format!(
                    "lint: {} finding(s), first {finding}",
                    findings.len()
                ));
            }
            agreement.map_err(|e| format!("HDL cost disagrees with tsn-resource: {e}"))?;
            let sim = RunSummary::of(&report);
            let depth = customization.derived().resources.queue_depth() as usize;
            if sim.ts_lost > 0 {
                return Err(format!("simulation lost {} TS frames", sim.ts_lost));
            }
            if sim.queue_high_water > depth {
                return Err(format!(
                    "queue high-water {} exceeds the derived depth {depth}",
                    sim.queue_high_water
                ));
            }
            let cache = report.events.route_cache;
            Ok(Answer {
                bram36: CostKey::of(&customization.derived().resources).bram36_blocks,
                paper_kb: usage.total_kb(),
                hdl_lines: bundle.total_lines(),
                route_cache: (cache.hits, cache.misses),
                sim,
            })
        },
    );
    (answer, ns)
}

struct Stream {
    requests: Vec<Request>,
    /// Each request's first answer; later answers must equal it.
    answers: Vec<Option<Answer>>,
}

impl Stream {
    fn setup(seed: u64, pool: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let requests = requests(seed, pool).map_err(|e| e.to_string())?;
        let mut stream = Stream {
            answers: vec![None; requests.len()],
            requests,
        };
        for i in 0..WARM_UP.min(pool) {
            stream.op(i, tracer).1?;
        }
        Ok(stream)
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer) -> (u64, Result<(), String>) {
        let index = i % self.requests.len();
        let (answer, ns) = customize(&self.requests[index], tracer);
        let outcome = answer
            .map_err(|e| format!("request {index} ({}): {e}", self.requests[index].kind))
            .and_then(|answer| {
                check_repeat(
                    answer,
                    &mut self.answers[index],
                    &format!("request {index}"),
                )
            });
        (ns, outcome)
    }
}

/// Runs the workload over a pool of `pool` requests (the benchmark uses
/// [`POOL`]; tests use small pools).
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &RunConfig, pool: usize, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let (mut stream, setup_s) =
        setup_repeated(SETUPS, tracer, |t| Stream::setup(cfg.seed, pool, t))?;
    let mut measured = measure(cfg, tracer, stream.requests.len(), |i, t| stream.op(i, t));
    let peak_rss_mib = peak_rss_mib();
    // Requests the loop did not reach still get their answer, so the
    // deterministic metrics always cover the whole pool.
    for index in 0..stream.requests.len() {
        if stream.answers[index].is_none() {
            let outcome = stream.op(index, tracer).1;
            measured.record(outcome);
        }
    }

    let answers: Vec<&Answer> = stream.answers.iter().flatten().collect();
    let n = answers.len().max(1) as f64;
    let mean = |f: fn(&Answer) -> f64| answers.iter().map(|a| f(a)).sum::<f64>() / n;
    let (hits, lookups) = answers.iter().fold((0, 0), |(h, l), a| {
        (h + a.route_cache.0, l + a.route_cache.0 + a.route_cache.1)
    });
    let mut layer = vec![
        ("builder.derive_ms", tracer.mean_ms("builder.derive", false)),
        (
            "builder.synthesize_ms",
            tracer.mean_ms("builder.synthesize", false),
        ),
        (
            "resource.usage_report_us",
            tracer.mean_ms("resource.usage_report", false) * 1e3,
        ),
        ("resource.paper_kb", mean(|a| a.paper_kb)),
        ("hdl.generate_ms", tracer.mean_ms("hdl.generate", false)),
        ("hdl.parse_ms", tracer.mean_ms("hdl.parse", false)),
        ("hdl.lint_ms", tracer.mean_ms("hdl.lint", false)),
        ("hdl.cost_check_ms", tracer.mean_ms("hdl.cost_check", false)),
        ("hdl.lines", mean(|a| a.hdl_lines as f64)),
        (
            "sim.route_cache_hit_rate",
            ratio(hits as f64, lookups as f64),
        ),
    ];
    let summaries: Vec<&RunSummary> = answers.iter().map(|a| &a.sim).collect();
    layer.extend(sim_counters(&summaries, tracer.mean_ms("sim.run", false)));
    Ok(WorkloadRun {
        setup_s,
        measured,
        tail_quantile: 0.99,
        answers_per_op: 1.0,
        answer_bram36: mean(|a| a.bram36 as f64),
        peak_rss_mib,
        run_checks: vec![("paper anchor", paper_anchor())],
        layer,
    })
}
