//! Shrinker-backed properties of the design-space search, run on random
//! [`ScenarioCase`]s through the tsn-verify harness (a failure is
//! greedily shrunk to a minimal case before the assert fires).
//!
//! 1. **Pruning never wrong**: any candidate the analytic bounds reject
//!    must also fail its simulation — a prune is only sound if the
//!    simulator agrees the candidate was doomed.
//! 2. **Bisection monotonicity**: walking any single knob down from the
//!    derived starting point, feasibility flips from feasible to
//!    infeasible at most once — the upward-closure assumption the
//!    per-knob bisection rests on.
//! 3. **Early stops never change a verdict**: the search's candidate
//!    runs end at their first certain failure, yet each verdict equals
//!    the full run's, and the confirm-stage reason is the full run's.

use std::collections::HashMap;

use tsn_dse::{
    bench_family, DseEngine, Feasibility, Knob, PlannedQuery, QosQuery, QueryStatus, TopologySpec,
    KNOBS,
};
use tsn_types::SimDuration;
use tsn_verify::case::ScenarioCase;
use tsn_verify::oracles::dse_query;
use tsn_verify::runner::{Runner, Verdict};

/// Pruning soundness: for each table knob with a nontrivial analytic
/// floor, the candidate one notch *below* the floor must be rejected by
/// `bound_check` and must independently fail `DseEngine::simulate` (the
/// uncached ground truth, no bound pre-check).
fn pruning_never_wrong(case: &ScenarioCase) -> Verdict {
    let query = dse_query(case);
    let planned = match PlannedQuery::plan(&query) {
        Ok(p) => p,
        Err(e) => return Verdict::Discard(format!("plan: {e}")),
    };
    let mut checked = 0;
    for knob in [Knob::UnicastTbl, Knob::ClassTbl] {
        let floor = planned.floor(knob);
        if floor <= 1 {
            continue;
        }
        let below = match knob.with_value(&planned.derived.resources, floor - 1) {
            Ok(cfg) => cfg,
            Err(e) => {
                return Verdict::Fail(format!(
                    "{}: setting {} (>= 1) was rejected by validation: {e}",
                    knob.name(),
                    floor - 1
                ))
            }
        };
        if planned.bound_check(&below).is_ok() {
            return Verdict::Fail(format!(
                "{} = {} is below the floor {floor} but bound_check accepted it",
                knob.name(),
                floor - 1
            ));
        }
        let ground_truth = DseEngine::simulate(&planned, &below);
        if ground_truth.is_feasible() {
            return Verdict::Fail(format!(
                "unsound prune: {} = {} was bound-rejected (floor {floor}) \
                 but its simulation meets every target",
                knob.name(),
                floor - 1
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Verdict::Discard("every table floor is trivial (1)".into());
    }
    Verdict::Pass
}

/// Upward closure along one knob: in a top-down walk from the derived
/// value to 1 (every other knob held at its derived value), feasibility
/// never recovers after its first failure.
fn bisection_monotonicity(case: &ScenarioCase) -> Verdict {
    let query = dse_query(case);
    let planned = match PlannedQuery::plan(&query) {
        Ok(p) => p,
        Err(e) => return Verdict::Discard(format!("plan: {e}")),
    };
    // Queue depth and buffer pool are the sim-bisected knobs (tables are
    // floor-pruned exactly); pick one per case from the workload seed.
    let knob = if case.wl_seed.is_multiple_of(2) {
        Knob::QueueDepth
    } else {
        Knob::BufferNum
    };
    let start = knob.value(&planned.derived.resources);
    let mut seen_infeasible = false;
    for v in (1..=start).rev() {
        let cfg = match knob.with_value(&planned.derived.resources, v) {
            Ok(cfg) => cfg,
            Err(e) => return Verdict::Fail(format!("{} = {v} rejected: {e}", knob.name())),
        };
        let feasible = DseEngine::simulate(&planned, &cfg).is_feasible();
        if feasible && seen_infeasible {
            return Verdict::Fail(format!(
                "feasibility is not monotone in {}: {v} is feasible below an \
                 infeasible larger value (walk started at {start})",
                knob.name()
            ));
        }
        seen_infeasible |= !feasible;
    }
    Verdict::Pass
}

#[test]
fn pruning_is_never_wrong_on_random_cases() {
    let runner = Runner::new(24, 0xd5e1);
    let report = runner.run(
        "dse-pruning-never-wrong",
        &ScenarioCase::generate,
        pruning_never_wrong,
    );
    if let Some(failure) = &report.failure {
        panic!(
            "{} (seed 0x{:x}, shrunk to {:?})",
            failure.shrunk.message, failure.seed, failure.shrunk.case
        );
    }
    assert!(report.executed > 0, "all {} cases discarded", runner.cases);
}

#[test]
fn bisection_monotonicity_holds_on_random_cases() {
    let runner = Runner::new(10, 0xd5e2);
    let report = runner.run(
        "dse-bisection-monotonicity",
        &ScenarioCase::generate,
        bisection_monotonicity,
    );
    if let Some(failure) = &report.failure {
        panic!(
            "{} (seed 0x{:x}, shrunk to {:?})",
            failure.shrunk.message, failure.seed, failure.shrunk.case
        );
    }
    assert!(report.executed > 0, "all {} cases discarded", runner.cases);
}

/// The search's own sanity net: on random feasible cases every knob of
/// the answer sits at or above its analytic floor, and the knob order
/// constant stays in sync with the config surface.
#[test]
fn answers_respect_their_floors() {
    let mut rng = tsn_types::SplitMix64::seed_from_u64(0xd5e3);
    let engine = DseEngine::new();
    let mut feasible = 0;
    for _ in 0..12 {
        let case = ScenarioCase::generate(&mut rng);
        let query = dse_query(&case);
        let tsn_dse::QueryStatus::Feasible(outcome) = engine.answer(&query).status else {
            continue;
        };
        feasible += 1;
        let planned = PlannedQuery::plan(&query).expect("feasible answers plan");
        for knob in KNOBS {
            assert!(
                knob.value(&outcome.config) >= planned.floor(knob),
                "{}: answer {} below floor {}",
                knob.name(),
                knob.value(&outcome.config),
                planned.floor(knob)
            );
        }
    }
    assert!(feasible > 0, "no random case was feasible");
}

/// Early-stop soundness: every candidate the engine simulated — its
/// runs stop at the first certain failure — has the verdict of the
/// full run `DseEngine::simulate` gives, on the bench families and on
/// random oracle queries.
#[test]
fn early_stopped_verdicts_match_full_runs() {
    let mut rng = tsn_types::SplitMix64::seed_from_u64(0xd5e4);
    let mut queries: Vec<QosQuery> = ["ring", "linear", "star"]
        .into_iter()
        .flat_map(bench_family)
        .collect();
    queries.extend((0..100).map(|_| dse_query(&ScenarioCase::generate(&mut rng))));
    let engine = DseEngine::new();
    let mut by_fingerprint = HashMap::new();
    for query in &queries {
        engine.answer(query);
        by_fingerprint.insert(query.fingerprint(), query);
    }
    let (mut feasible, mut infeasible) = (0, 0);
    for (fingerprint, cfg) in engine.simulated_candidates() {
        let planned = engine.plan(by_fingerprint[&fingerprint]);
        let planned = planned.as_ref().as_ref().expect("simulated queries plan");
        let searched = engine.feasibility(planned, &cfg);
        let full = DseEngine::simulate(planned, &cfg);
        assert_eq!(
            searched.is_feasible(),
            full.is_feasible(),
            "{}: {cfg:?}: search saw {searched:?}, the full run {full:?}",
            planned.query.label
        );
        if full.is_feasible() {
            feasible += 1;
        } else {
            infeasible += 1;
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} / {infeasible}");
}

/// The derived configuration is the one candidate whose failure reason
/// a caller reads (the confirm stage); it runs in full, so the reason
/// counts the whole run's misses, as it always has.
#[test]
fn confirm_stage_reasons_come_from_full_runs() {
    // 32 full-size frames per 250 us overload the ring's links.
    let query = QosQuery {
        label: "overloaded".into(),
        topology: TopologySpec::Named {
            kind: "ring".into(),
            switches: 3,
            hosts: 2,
        },
        ts_count: 32,
        frame_bytes: 1500,
        period: SimDuration::from_micros(250),
        seed: 5,
        deadline: SimDuration::from_micros(100),
        jitter: None,
        max_lost: 0,
        duration: SimDuration::from_millis(4),
    };
    let QueryStatus::Infeasible { stage, reason } = DseEngine::new().answer(&query).status else {
        panic!("an overloaded ring cannot meet its targets");
    };
    assert_eq!(stage, "confirm");
    assert_eq!(
        reason,
        "the guideline-derived configuration already misses a target: \
         64 delivered TS frames missed the 100us deadline"
    );
    let planned = PlannedQuery::plan(&query).expect("plans");
    let Feasibility::SimFail(full) = DseEngine::simulate(&planned, &planned.derived.resources)
    else {
        panic!("the derived configuration fails");
    };
    assert!(reason.ends_with(&full), "{reason} vs {full}");
}
