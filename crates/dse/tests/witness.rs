//! The certify step's occupancy witness against full simulations.
//!
//! A passing run whose queue (or buffer-pool) high-water equals
//! `queue_depth` (or `buffer_num`) proves the one-notch-smaller run
//! drops a frame, so `DseEngine::certify` rejects that step-down without
//! simulating it. Here every such claim is re-simulated with
//! `DseEngine::simulate`: on the bench families and on random
//! `dse-optimality` oracle queries, for the answer, the ITP-peak
//! candidate and the derived configuration whenever they pass,
//!
//! * a high-water equal to the knob's value makes the step-down lose TS
//!   frames, and
//! * a high-water below it leaves the step-down's run unchanged:
//!   feasible, with a bit-identical worst latency.
//!
//! A lossy target (`max_lost > 0`) voids the witness, so its step-downs
//! are still simulated.

use tsn_dse::{
    bench_family, step_down, DseEngine, Feasibility, Knob, PlannedQuery, QosQuery, QueryStatus,
    BENCH_COPIES,
};
use tsn_resource::ResourceConfig;
use tsn_types::SplitMix64;
use tsn_verify::case::ScenarioCase;
use tsn_verify::oracles::dse_query;

/// How often each side of the witness was checked.
#[derive(Debug, Default)]
struct Tally {
    filled: usize,
    below: usize,
}

/// Checks both witness directions on one passing configuration.
fn check(planned: &PlannedQuery, cfg: &ResourceConfig, tally: &mut Tally) {
    let passed = DseEngine::simulate(planned, cfg);
    let Feasibility::Feasible {
        worst_latency_us,
        queue_high_water,
        pool_high_water,
    } = passed
    else {
        return;
    };
    let label = &planned.query.label;
    for (knob, high_water) in [
        (Knob::QueueDepth, queue_high_water),
        (Knob::BufferNum, pool_high_water),
    ] {
        let value = knob.value(cfg) as usize;
        assert!(high_water <= value, "{label}: {} overran", knob.name());
        assert_eq!(
            planned.witness_rules_out(cfg, knob, &passed),
            high_water == value,
            "{label}: {}",
            knob.name()
        );
        let Some(smaller) = step_down(cfg, knob) else {
            continue;
        };
        match DseEngine::simulate(planned, &smaller) {
            Feasibility::SimFail(reason) if high_water == value => {
                assert!(
                    reason.starts_with("lost ") && reason.contains(" TS frames"),
                    "{label}: {} − 1 failed for another reason: {reason}",
                    knob.name()
                );
                tally.filled += 1;
            }
            Feasibility::Feasible {
                worst_latency_us: smaller_worst,
                ..
            } if high_water < value => {
                assert_eq!(
                    smaller_worst.to_bits(),
                    worst_latency_us.to_bits(),
                    "{label}: {} − 1 moved the worst latency",
                    knob.name()
                );
                tally.below += 1;
            }
            verdict => panic!(
                "{label}: {} = {value} with high-water {high_water} steps down to {verdict:?}",
                knob.name()
            ),
        }
    }
}

/// Runs [`check`] on every passing configuration the search visits for
/// `query`: the answer, the ITP-peak candidate and the derived bound.
fn check_query(query: &QosQuery, tally: &mut Tally) {
    let QueryStatus::Feasible(outcome) = DseEngine::new().answer(query).status else {
        return;
    };
    let planned = PlannedQuery::plan(query).expect("feasible queries plan");
    check(&planned, &outcome.config, tally);
    if let Ok(peak) = planned.peak_candidate() {
        check(&planned, &peak, tally);
    }
    check(&planned, &planned.derived.resources, tally);
}

#[test]
fn occupancy_witnesses_match_full_runs() {
    let mut tally = Tally::default();
    for kind in ["ring", "linear", "star"] {
        for query in bench_family(kind).iter().step_by(BENCH_COPIES) {
            check_query(query, &mut tally);
        }
    }
    let mut rng = SplitMix64::seed_from_u64(0x5717);
    for _ in 0..100 {
        check_query(&dse_query(&ScenarioCase::generate(&mut rng)), &mut tally);
    }
    assert!(tally.filled > 0 && tally.below > 0, "{tally:?}");
}

#[test]
fn lossy_targets_still_simulate_their_step_downs() {
    // The third unique ring query certifies at queue depth and buffer
    // pool 3, so both knobs can step down.
    let lossless = bench_family("ring").swap_remove(2 * BENCH_COPIES);
    let lossy = QosQuery {
        max_lost: 1,
        ..lossless.clone()
    };
    let planned = PlannedQuery::plan(&lossy).expect("plans");
    let peak = planned.peak_candidate().expect("valid candidate");

    let engine = DseEngine::new();
    let QueryStatus::Feasible(lossless_outcome) = engine.answer(&lossless).status else {
        panic!("the lossless query is feasible");
    };
    assert_eq!(lossless_outcome.config, peak, "certified");
    assert_eq!(
        lossless_outcome.sims, 1,
        "the witness rejects both step-downs"
    );

    let engine = DseEngine::new();
    let QueryStatus::Feasible(lossy_outcome) = engine.answer(&lossy).status else {
        panic!("a looser target stays feasible");
    };
    assert!(lossy_outcome.sims > 1, "{lossy_outcome:?}");
    let simulated: Vec<ResourceConfig> = engine
        .simulated_candidates()
        .into_iter()
        .map(|(_, cfg)| cfg)
        .collect();
    for knob in [Knob::QueueDepth, Knob::BufferNum] {
        let smaller = step_down(&peak, knob).expect("the peak steps down");
        assert!(
            simulated.contains(&smaller),
            "{} − 1 was not simulated",
            knob.name()
        );
        if engine.feasibility(&planned, &smaller).is_feasible() {
            break; // the certify step stops at its first feasible step-down
        }
    }
}
