//! `dse-batch`: cold design-space-search batches.
//!
//! Each op hands a fresh `DseEngine` one batch of 300 queries: every
//! query is planned (`DseEngine::plan`), then answered
//! (`DseEngine::answer`) with the plans cached. The batch covers the
//! ring, linear and star families with 20 seeded unique queries × 5
//! labels each, so plan, candidate and answer memo dedup are all on the
//! measured path.
//!
//! The op calls the engine on the benchmark's own thread. On a 2-CPU
//! host the batch service (`run_batch`, whose sweep pool spawns fresh
//! threads on every call) answered a batch no faster on two workers than
//! on one, and the run-to-run spread of its median batch time reached
//! ~30%, against ~12% for the same engine calls made here. Once per run,
//! outside timing, `run_batch` answers the batch on one and on two
//! workers, and the responses must be fully feasible and byte-identical.

use std::collections::BTreeMap;

use tsn_dse::{run_batch, DseEngine, QosQuery, QueryResult, QueryStatus, TopologySpec};
use tsn_experiments::json::Json;
use tsn_types::{SimDuration, SplitMix64};

use crate::{
    measure, paper_anchor, peak_rss_mib, setup_repeated, timed, Layer, RunConfig, Tracer,
    WorkloadRun,
};

/// Topology families of a batch.
pub const FAMILIES: [&str; 3] = ["ring", "linear", "star"];
/// Unique queries per family.
pub const UNIQUE_PER_FAMILY: u64 = 20;
/// Labelled copies of every unique query.
pub const COPIES: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The seeded 300-query batch. Each family's 20 unique queries share
/// one fixed mix of flow counts, deadlines and jitter targets; the seed
/// places the flows, so every seed asks equally hard questions about
/// different traffic. Families are concatenated and each unique query's
/// copies are adjacent, as a caller batching repeated questions would
/// send them.
#[must_use]
pub fn dse_batch(seed: u64) -> Vec<QosQuery> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(FAMILIES.len() * UNIQUE_PER_FAMILY as usize * COPIES);
    for kind in FAMILIES {
        for unique in 0..UNIQUE_PER_FAMILY {
            let base = QosQuery {
                label: String::new(),
                topology: TopologySpec::Named {
                    kind: kind.to_owned(),
                    switches: 3,
                    hosts: 2,
                },
                ts_count: 4 + 2 * (unique as u32 % 3),
                frame_bytes: 128,
                period: SimDuration::from_millis(2),
                seed: rng.next_u64(),
                deadline: SimDuration::from_micros([3000, 4000, 6000, 4000][unique as usize % 4]),
                jitter: (unique % 4 == 3).then(|| SimDuration::from_micros(130)),
                max_lost: 0,
                duration: SimDuration::from_millis(4),
            };
            for copy in 0..COPIES {
                let mut q = base.clone();
                q.label = format!("{kind}/{unique}/{copy}");
                queries.push(q);
            }
        }
    }
    queries
}

/// One op: plan every query, then answer every query, on the calling
/// thread.
fn answer_all(queries: &[QosQuery], tracer: &mut Tracer) -> (DseEngine, Vec<QueryResult>) {
    let engine = DseEngine::new();
    tracer.span("dse.plan", Layer::Dse, || {
        for q in queries {
            engine.plan(q);
        }
    });
    let results = tracer.span("dse.answer", Layer::Dse, || {
        queries.iter().map(|q| engine.answer(q)).collect()
    });
    (engine, results)
}

/// Every answer must be feasible.
fn check_feasible(results: &[QueryResult]) -> Result<(), String> {
    match results
        .iter()
        .find(|r| !matches!(r.status, QueryStatus::Feasible(_)))
    {
        Some(r) => Err(format!("{}: {:?}", r.label, r.status)),
        None => Ok(()),
    }
}

/// The batch service end to end: `run_batch` on one and on two workers
/// must render byte-identical, fully feasible responses.
fn check_batch_service(queries: &[QosQuery]) -> Result<(), String> {
    let [one, two] = [1, 2].map(|workers| run_batch(&DseEngine::new(), queries, workers));
    let feasible = one.get("feasible").and_then(Json::as_u64);
    if feasible != Some(queries.len() as u64) {
        return Err(format!(
            "{feasible:?} of {} answers feasible",
            queries.len()
        ));
    }
    if one.pretty() != two.pretty() {
        return Err("2-worker response differs from the 1-worker one".to_owned());
    }
    Ok(())
}

struct Batch {
    queries: Vec<QosQuery>,
    /// The warm-up batch's answers; every op must match them.
    reference: Vec<QueryResult>,
}

impl Batch {
    fn setup(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let queries = dse_batch(seed);
        let (_, reference) = answer_all(&queries, tracer);
        check_feasible(&reference)?;
        Ok(Batch { queries, reference })
    }

    fn op(&self, tracer: &mut Tracer) -> (u64, Result<(), String>) {
        let ((engine, results), ns) = timed(tracer, |t| answer_all(&self.queries, t));
        let mut outcome = check_feasible(&results).and_then(|()| {
            if results == self.reference {
                Ok(())
            } else {
                Err("batch answers differ from the first batch's".to_owned())
            }
        });
        if tracer.enabled() && outcome.is_ok() {
            outcome = simulate_answers(&engine, &self.queries, tracer);
        }
        (ns, outcome)
    }
}

/// Traced runs only, outside the timed op: re-simulates each unique
/// answer's final config, uncached, and checks it still meets its
/// targets.
fn simulate_answers(
    engine: &DseEngine,
    queries: &[QosQuery],
    tracer: &mut Tracer,
) -> Result<(), String> {
    for q in queries.iter().step_by(COPIES) {
        let planned = engine.plan(q);
        let planned = planned.as_ref().as_ref().map_err(|e| e.to_string())?;
        let QueryStatus::Feasible(outcome) = engine.answer(q).status else {
            return Err(format!("{}: infeasible", q.label));
        };
        let verdict = tracer.span("dse.simulate", Layer::Dse, || {
            DseEngine::simulate(planned, &outcome.config)
        });
        if !verdict.is_feasible() {
            return Err(format!(
                "{}: final config re-simulates as {verdict:?}",
                q.label
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let (batch, setup_s) = setup_repeated(SETUPS, tracer, |t| Batch::setup(cfg.seed, t))?;
    let measured = measure(cfg, tracer, 1, |_, t| batch.op(t));
    let peak_rss_mib = peak_rss_mib();

    // Deterministic figures come from one more cold batch, untraced.
    let (engine, results) = answer_all(&batch.queries, &mut Tracer::new(false));
    let stats = engine.stats();
    let mut outcomes = BTreeMap::new();
    let mut bram36 = 0.0;
    for result in results {
        if let QueryStatus::Feasible(outcome) = result.status {
            bram36 += outcome.cost.bram36_blocks as f64;
            outcomes.insert(result.fingerprint, outcome);
        }
    }
    let layer = vec![
        ("dse.plan_ms", tracer.mean_ms("dse.plan", false)),
        ("dse.answer_ms", tracer.mean_ms("dse.answer", false)),
        ("dse.simulate_ms", tracer.mean_ms("dse.simulate", false)),
        ("dse.sims", stats.candidates.misses as f64),
        (
            "dse.pruned",
            outcomes.values().map(|o| o.pruned as f64).sum::<f64>(),
        ),
        ("dse.candidates_hit_rate", stats.candidates.hit_rate()),
        ("dse.answers_hit_rate", stats.answers.hit_rate()),
    ];
    Ok(WorkloadRun {
        setup_s,
        measured,
        tail_quantile: 0.9,
        answers_per_op: batch.queries.len() as f64,
        answer_bram36: bram36 / batch.queries.len() as f64,
        peak_rss_mib,
        run_checks: vec![
            ("paper anchor", paper_anchor()),
            ("batch service", check_batch_service(&batch.queries)),
        ],
        layer,
    })
}
