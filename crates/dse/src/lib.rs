//! Batch design-space search (`tsn-dse`): the paper's "rapid
//! customization" promise, productized.
//!
//! A *query* states per-flow QoS targets (deadline, optional jitter,
//! tolerated loss) over a named preset or inline topology; the engine
//! answers with the cheapest [`tsn_resource::ResourceConfig`] — ranked
//! by [`tsn_resource::CostKey`], BRAM36 blocks first, register bits as
//! the tiebreak — whose simulation meets those targets.
//!
//! The search is structured for throughput at thousands of queries per
//! warm process:
//!
//! 1. **Analytic pruning first.** Eq. (1) (`L ∈ [(hop−1)·slot,
//!    (hop+1)·slot]`) picks the slot and rejects undeliverable deadlines
//!    before any simulation, and exact per-switch route counts floor the
//!    table knobs (an entry per flow per hop is installed, so a smaller
//!    table *must* fail to build). Queue depth and buffer pool are *not*
//!    hard-pruned: the ITP occupancy is a planned model with sub-slot
//!    arrival skew, so the simulator has the final word on them.
//! 2. **Certify, then search.** The paper's guideline (4) sizes queue
//!    depth from the ITP peak slot occupancy, so the engine first
//!    probes that candidate: tables at their floors, one meter entry,
//!    queue depth and buffer pool at the peak. It is the answer when its
//!    simulation passes and every single-knob step-down fails (tables
//!    and meter on their floors, `queue_depth − 1` and `buffer_num − 1`
//!    on the passing run's queue and buffer-pool occupancy) — one
//!    simulation for a lossless query. Otherwise
//!    the engine confirms the derived configuration and bisects the
//!    monotone knobs (unicast/class/meter tables, queue depth, buffer
//!    pool) one at a time, then polishes single steps to a fixpoint.
//!    Either way the result is locally minimal: stepping any knob down
//!    one notch makes a bound or the simulation fail.
//! 3. **Memoized candidate runs** on [`tsn_sim::PlanCache`]: CQF/ITP
//!    plans are shared across queries, every candidate simulation is
//!    keyed by `(query, config)`, and whole queries dedupe by
//!    fingerprint, so a warm engine answers repeats from cache. Each
//!    candidate run patches the query's resident template and stops at
//!    its first certain failure.
//!
//! The `dse` binary wraps this in a strict JSON batch interface (see
//! [`batch`]); the `dse` bench of `tsn-bench` tracks its throughput
//! (`BENCH_9.json`). The `dse-optimality` verify oracle adversarially re-checks both
//! directions of every answer via [`check_optimality`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod query;
pub mod search;

pub use batch::{bench_family, parse_batch, run_batch, run_batch_text, BENCH_COPIES};
pub use query::{QosQuery, TopologySpec};
pub use search::{
    check_optimality, step_down, DseEngine, EngineStats, Feasibility, Knob, PlannedQuery,
    QueryResult, QueryStatus, SearchOutcome, KNOBS,
};
