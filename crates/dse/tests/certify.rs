//! Differential test of the certify step. `DseEngine::answer` first
//! probes the ITP-peak candidate and only falls back to bisection when
//! that candidate is not locally minimal; the answers must equal those
//! of the plain confirm → bisect → polish coordinate descent, kept here
//! as the reference, on the DSE bench's family batches and on random
//! `dse-optimality` oracle queries. The random cases must include
//! fallbacks, so both paths of the search are compared.

use tsn_dse::{
    bench_family, step_down, DseEngine, Feasibility, PlannedQuery, QosQuery, QueryStatus,
    BENCH_COPIES, KNOBS,
};
use tsn_resource::{CostKey, ResourceConfig};
use tsn_types::SplitMix64;
use tsn_verify::case::ScenarioCase;
use tsn_verify::oracles::dse_query;

/// The coordinate descent without the certify step: confirm the derived
/// upper bound, bisect each knob over `[1, current]`, then polish single
/// step-downs to a fixpoint. `Err` holds the rejecting stage.
fn reference_search(query: &QosQuery) -> Result<(ResourceConfig, f64), &'static str> {
    let engine = DseEngine::new();
    let planned = engine.plan(query);
    let planned = planned.as_ref().as_ref().map_err(|_| "plan")?;
    let feasible = |cfg: &ResourceConfig| engine.feasibility(planned, cfg).is_feasible();
    let mut cfg = planned.derived.resources.clone();
    if !feasible(&cfg) {
        return Err("confirm");
    }
    for knob in KNOBS {
        let (mut lo, mut hi) = (1, knob.value(&cfg));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if knob.with_value(&cfg, mid).is_ok_and(|c| feasible(&c)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cfg = knob.with_value(&cfg, hi).expect("feasible endpoint");
    }
    loop {
        let mut improved = false;
        for knob in KNOBS {
            while let Some(smaller) = step_down(&cfg, knob).filter(|c| feasible(c)) {
                cfg = smaller;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let Feasibility::Feasible { worst_latency_us } = engine.feasibility(planned, &cfg) else {
        unreachable!("the descent only moves between feasible configurations");
    };
    Ok((cfg, worst_latency_us))
}

/// Which search path answered a query.
#[derive(Debug, PartialEq)]
enum Path {
    Certified,
    FellBack,
    Infeasible,
}

/// Asserts the engine's answer equals the reference's and reports the
/// path it took. A feasible answer equal to the peak candidate is the
/// certified one: a locally minimal candidate always certifies.
fn compare(query: &QosQuery) -> Path {
    let status = DseEngine::new().answer(query).status;
    match (reference_search(query), status) {
        (Ok((config, observed)), QueryStatus::Feasible(outcome)) => {
            assert_eq!(outcome.config, config, "{query:?}");
            assert_eq!(outcome.cost, CostKey::of(&config), "{query:?}");
            assert_eq!(
                outcome.observed_worst_us.to_bits(),
                observed.to_bits(),
                "{query:?}"
            );
            let planned = PlannedQuery::plan(query).expect("feasible queries plan");
            if planned.peak_candidate().ok() == Some(config) {
                assert!(outcome.sims <= 3, "certified in {} sims", outcome.sims);
                Path::Certified
            } else {
                Path::FellBack
            }
        }
        (Err(stage), QueryStatus::Infeasible { stage: got, .. }) => {
            assert_eq!(got, stage, "{query:?}");
            Path::Infeasible
        }
        (reference, status) => panic!("{query:?}: reference {reference:?}, search {status:?}"),
    }
}

#[test]
fn certify_matches_the_descent_on_the_bench_families() {
    for kind in ["ring", "linear", "star"] {
        for query in bench_family(kind).iter().step_by(BENCH_COPIES) {
            assert_eq!(compare(query), Path::Certified, "{query:?}");
        }
    }
}

#[test]
fn certify_matches_the_descent_on_random_oracle_queries() {
    let mut rng = SplitMix64::seed_from_u64(0xce27);
    let mut paths = [0usize; 3];
    for _ in 0..300 {
        let query = dse_query(&ScenarioCase::generate(&mut rng));
        paths[compare(&query) as usize] += 1;
    }
    let [certified, fell_back, _] = paths;
    assert!(certified > 0, "no random query certified: {paths:?}");
    assert!(
        fell_back > 0,
        "no random query exercised the fallback: {paths:?}"
    );
}
