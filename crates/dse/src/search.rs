//! The search engine: analytic pruning, an ITP-peak certificate,
//! per-knob bisection as the fallback, memoized candidate simulations.
//!
//! Hard pruning only uses bounds that are *provably* equivalent to a
//! failure of the real pipeline:
//!
//! * **Eq. (1) slot feasibility** at query level — if no whole-µs slot
//!   satisfies `(hop+1)·slot ≤ deadline` (and `2·slot ≤ jitter` when a
//!   jitter target is set), the query is infeasible outright and nothing
//!   is ever simulated.
//! * **Exact table floors** per candidate — the simulator installs one
//!   unicast entry per distinct `(dst MAC, VLAN)` key and one
//!   classification entry per distinct stream key *per switch*, computed
//!   here with the same routing the network build uses, so a table below
//!   its floor makes `Network::build` error deterministically.
//!
//! The ITP peak occupancy, by contrast, is a *planned* model with ±1 slot
//! of arrival skew ([`ItpResult::recommended_queue_depth`] documents the
//! slack), so queue depth and buffer pool are never bound-pruned. The
//! peak is a *hint*: [`DseEngine`] first probes
//! [`PlannedQuery::peak_candidate`] (tables at their floors, one meter
//! entry, queue depth and buffer pool at the peak) and returns it when
//! its simulation passes and every single-knob step-down fails — the
//! table and meter step-downs on their floors, `queue_depth − 1` and
//! `buffer_num − 1` on the passing run's occupancy. That is the
//! [`check_optimality`] certificate, so a certified answer is locally
//! minimal by construction.
//!
//! The occupancy witness: both capacities are read only at admission, so
//! when the passing run filled a queue (or a port's buffer pool) to the
//! knob's value, the run one notch smaller is identical up to that
//! admission and drops the frame there. For a lossless all-TS query that
//! is a certain failure, and the step-down is rejected without a
//! simulation; a certified answer then costs one simulation. A run that
//! stayed below the knob's value simulates its step-down as before. On
//! any miss the confirm → bisect → polish search runs on the same
//! candidate memo, so no candidate is simulated twice.

use std::sync::Arc;

use tsn_builder::cqf::CqfPlan;
use tsn_builder::derive::{derive_with_plans, DeriveOptions, DerivedConfig};
use tsn_builder::itp::{self, ItpResult, Strategy};
use tsn_builder::requirements::AppRequirements;
use tsn_resource::{CostKey, ResourceConfig};
use tsn_sim::network::{mac_for, vlan_for, ConfigDelta, NetworkTemplate, SimConfig, SyncSetup};
use tsn_sim::{CacheStats, PlanCache};
use tsn_topology::presets::PRESET_RATE;
use tsn_types::{SimDuration, TsnError, TsnResult};

use crate::query::QosQuery;

/// One monotone search knob of the Table II parameter space. The
/// behavioural parameters (queue count, port count, the CQF gate program)
/// are fixed by the derivation; these five only add or remove *capacity*,
/// so feasibility is upward closed in each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Unicast switch-table entries (`set_switch_tbl`).
    UnicastTbl,
    /// Stream-classification entries (`set_class_tbl`).
    ClassTbl,
    /// Meter entries (`set_meter_tbl`).
    MeterTbl,
    /// Per-queue frame depth (`set_queues`).
    QueueDepth,
    /// Per-port shared buffer pool (`set_buffers`).
    BufferNum,
}

/// Every search knob, in the order the coordinate descent fixes them.
/// Tables first (their floors are exact, so they converge without
/// simulation), then the simulation-bisected depth and buffer pool.
pub const KNOBS: [Knob; 5] = [
    Knob::UnicastTbl,
    Knob::ClassTbl,
    Knob::MeterTbl,
    Knob::QueueDepth,
    Knob::BufferNum,
];

impl Knob {
    /// The knob's name in responses and oracle messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Knob::UnicastTbl => "unicast_tbl",
            Knob::ClassTbl => "class_tbl",
            Knob::MeterTbl => "meter_tbl",
            Knob::QueueDepth => "queue_depth",
            Knob::BufferNum => "buffer_num",
        }
    }

    /// The knob's current value in `cfg`.
    #[must_use]
    pub fn value(self, cfg: &ResourceConfig) -> u32 {
        match self {
            Knob::UnicastTbl => cfg.unicast_size(),
            Knob::ClassTbl => cfg.class_size(),
            Knob::MeterTbl => cfg.meter_size(),
            Knob::QueueDepth => cfg.queue_depth(),
            Knob::BufferNum => cfg.buffer_num(),
        }
    }

    /// A copy of `cfg` with this knob set to `v`, every other parameter
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates `ResourceConfig` validation — the Table II setters
    /// reject empty capacities, which is the search's hard floor.
    pub fn with_value(self, cfg: &ResourceConfig, v: u32) -> TsnResult<ResourceConfig> {
        let mut out = cfg.clone();
        match self {
            Knob::UnicastTbl => out.set_switch_tbl(v, cfg.multicast_size())?,
            Knob::ClassTbl => out.set_class_tbl(v)?,
            Knob::MeterTbl => out.set_meter_tbl(v)?,
            Knob::QueueDepth => out.set_queues(v, cfg.queue_num(), cfg.port_num())?,
            Knob::BufferNum => out.set_buffers(v, cfg.port_num())?,
        };
        Ok(out)
    }
}

/// `cfg` with `knob` one step smaller, or `None` when the step lands on a
/// value the Table II validation rejects (the API floor — for the
/// optimality check that counts as a *bound* failure).
#[must_use]
pub fn step_down(cfg: &ResourceConfig, knob: Knob) -> Option<ResourceConfig> {
    let v = knob.value(cfg);
    if v == 0 {
        return None;
    }
    knob.with_value(cfg, v - 1).ok()
}

/// A query after analytic planning: topology, flows, the CQF/ITP plans,
/// the derived upper-bound configuration and the exact table floors —
/// everything a candidate evaluation needs, computed once and memoized.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The query (label included; identity is [`PlannedQuery::fingerprint`]).
    pub query: QosQuery,
    /// [`QosQuery::fingerprint`], cached.
    pub fingerprint: u64,
    /// Validated topology + flows.
    pub requirements: AppRequirements,
    /// The slot plan (largest feasible slot, jitter-capped).
    pub cqf: CqfPlan,
    /// The injection plan (offsets shared by every candidate run).
    pub itp: ItpResult,
    /// The guideline-derived configuration: the search's feasible
    /// starting point and per-knob upper bound.
    pub derived: DerivedConfig,
    /// Exact per-switch unicast install count (max over switches).
    pub unicast_floor: u32,
    /// Exact per-switch classification install count (max over switches).
    pub class_floor: u32,
    /// The resident network build every candidate evaluation
    /// reconfigures: topology, routes, port roles and the flow-install
    /// program are computed once here, so a candidate simulation pays
    /// only for the resource-dependent switch state.
    pub template: Arc<NetworkTemplate>,
}

impl PlannedQuery {
    /// Plans a query: builds the topology and flows, picks the slot via
    /// Eq. (1) (capped to `jitter/2` when a jitter target is set), runs
    /// ITP, derives the upper-bound configuration and computes the exact
    /// table floors.
    ///
    /// # Errors
    ///
    /// Structured [`TsnError`]s for undeliverable targets (deadline below
    /// the analytic floor, jitter below 2 µs, bad topology or workload
    /// parameters) — this is the Eq. (1) pruning stage: a query that
    /// fails here is answered without any simulation.
    pub fn plan(query: &QosQuery) -> TsnResult<Self> {
        let topology = query.topology.build()?;
        let flows = query.flows(&topology)?;
        let requirements = AppRequirements::new(topology, flows, SimDuration::from_nanos(50))?;

        let mut cqf = CqfPlan::choose_slot(&requirements, PRESET_RATE)?;
        if let Some(jitter) = query.jitter {
            // Eq. (1) gives `L_max − L_min = 2·slot`, so a jitter target
            // caps the slot at `jitter/2` (whole µs, like the planner).
            let cap = SimDuration::from_micros(jitter.as_nanos() / 2 / 1_000);
            if cap.is_zero() {
                return Err(TsnError::ScheduleInfeasible(format!(
                    "jitter target {jitter} is below the 2 µs floor of the \
                     CQF two-slot bound (Eq. 1)"
                )));
            }
            if cqf.slot > cap {
                cqf = CqfPlan::with_slot(&requirements, cap, PRESET_RATE)?;
            }
        }
        let itp = itp::plan(&requirements, &cqf, Strategy::GreedyLeastLoaded)?;

        let mut options = DeriveOptions::automatic();
        options.slot = Some(cqf.slot);
        let derived = derive_with_plans(&requirements, &options, cqf.clone(), itp.clone())?;

        let (unicast_floor, class_floor) = table_floors(&requirements);

        // The candidate-invariant simulation setup, built once: every
        // `simulate` call swaps in only its ResourceConfig via
        // `reconfigure`. Base resources are the derived upper bound, so
        // `template.instantiate()` alone reproduces the confirming run.
        let base = SimConfig {
            duration: query.duration,
            sync: SyncSetup::Perfect,
            ..SimConfig::paper_defaults()
        };
        let template = Arc::new(derived.template(&requirements, base)?);

        Ok(PlannedQuery {
            query: query.clone(),
            fingerprint: query.fingerprint(),
            requirements,
            cqf,
            itp,
            derived,
            unicast_floor,
            class_floor,
            template,
        })
    }

    /// The analytic floor of a knob: exact install counts for the two
    /// tables the workload populates, the API floor of 1 everywhere else.
    #[must_use]
    pub fn floor(&self, knob: Knob) -> u32 {
        match knob {
            Knob::UnicastTbl => self.unicast_floor.max(1),
            Knob::ClassTbl => self.class_floor.max(1),
            Knob::MeterTbl | Knob::QueueDepth | Knob::BufferNum => 1,
        }
    }

    /// The certify step's candidate: `unicast_tbl`/`class_tbl` at their
    /// exact floors, `meter_tbl` = 1, and `queue_depth` = `buffer_num` =
    /// the ITP peak slot occupancy (the paper's guideline (4) sizing
    /// without the one-slot skew margin), each clamped to `[1, derived]`
    /// so the candidate never exceeds the derived upper bound.
    ///
    /// # Errors
    ///
    /// Propagates `ResourceConfig` validation (a derived knob of 0).
    pub fn peak_candidate(&self) -> TsnResult<ResourceConfig> {
        let derived = &self.derived.resources;
        let peak = self.itp.max_occupancy;
        [
            (Knob::UnicastTbl, self.floor(Knob::UnicastTbl)),
            (Knob::ClassTbl, self.floor(Knob::ClassTbl)),
            (Knob::MeterTbl, 1),
            (Knob::QueueDepth, peak),
            (Knob::BufferNum, peak),
        ]
        .into_iter()
        .try_fold(derived.clone(), |cfg, (knob, target)| {
            knob.with_value(&cfg, target.max(1).min(knob.value(derived)))
        })
    }

    /// Whether `passed`, the passing full run of `cfg`, proves the
    /// `knob − 1` step-down of `cfg` infeasible without simulating it.
    ///
    /// `queue_depth` and `buffer_num` are read only at admission: a queue
    /// refuses a frame at `len >= queue_depth`, a port's pool at
    /// `buffered >= buffer_num`. A run one notch smaller is therefore
    /// identical to `passed` up to the first admission that reached the
    /// run's high-water mark, and there it drops the frame. So when the
    /// high-water equals the knob's value, the smaller run drops a frame
    /// — a TS loss when every flow is TS, which a lossless target
    /// (`max_lost == 0`) rejects. Per-switch overrides would hold some
    /// switches at other capacities, so they rule the witness out.
    #[must_use]
    pub fn witness_rules_out(
        &self,
        cfg: &ResourceConfig,
        knob: Knob,
        passed: &Feasibility,
    ) -> bool {
        let Feasibility::Feasible {
            queue_high_water,
            pool_high_water,
            ..
        } = *passed
        else {
            return false;
        };
        let high_water = match knob {
            Knob::QueueDepth => queue_high_water,
            Knob::BufferNum => pool_high_water,
            Knob::UnicastTbl | Knob::ClassTbl | Knob::MeterTbl => return false,
        };
        let flows = self.requirements.flows();
        self.query.max_lost == 0
            && flows.ts_count() == flows.len()
            && self.template.config().per_switch_resources.is_empty()
            && u32::try_from(high_water) == Ok(knob.value(cfg))
    }

    /// Checks `cfg` against the analytic floors. `Err` names the first
    /// violated bound; such a candidate is rejected without simulation
    /// (and *would* fail it: `Network::build` errors when a table cannot
    /// hold its install set — the `pruning_never_wrong` property).
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated floor.
    pub fn bound_check(&self, cfg: &ResourceConfig) -> Result<(), String> {
        for knob in KNOBS {
            let (value, floor) = (knob.value(cfg), self.floor(knob));
            if value < floor {
                return Err(format!(
                    "{} = {value} is below the analytic floor {floor} \
                     (peak per-switch install count)",
                    knob.name()
                ));
            }
        }
        Ok(())
    }
}

/// Computes the exact per-switch install counts `Network::build` will
/// attempt: distinct `(dst MAC, VLAN)` unicast keys and distinct
/// `(src, dst, VLAN, PCP)` classification keys, maxed over switches.
/// Reads the routes [`AppRequirements`] computed with the same
/// shortest-path routing as the build, so the counts are exact, not
/// estimates.
fn table_floors(requirements: &AppRequirements) -> (u32, u32) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut unicast: BTreeMap<
        tsn_types::NodeId,
        BTreeSet<(tsn_types::MacAddr, tsn_types::VlanId)>,
    > = BTreeMap::new();
    let mut class: BTreeMap<tsn_types::NodeId, u32> = BTreeMap::new();
    for (flow, route) in requirements.flows().iter().zip(requirements.routes()) {
        let vlan = vlan_for(flow.id());
        let dst_mac = mac_for(flow.dst());
        let is_be = matches!(flow, tsn_types::FlowSpec::Be(_));
        for hop in route.switch_hops_iter() {
            unicast.entry(hop.node).or_default().insert((dst_mac, vlan));
            if !is_be {
                // VLANs are unique per flow id (at most `MAX_TS_COUNT`
                // flows), so every non-BE flow through a switch is one
                // distinct stream key.
                *class.entry(hop.node).or_default() += 1;
            }
        }
    }
    let unicast_floor = unicast
        .values()
        .map(|keys| keys.len() as u32)
        .max()
        .unwrap_or(0);
    let class_floor = class.values().copied().max().unwrap_or(0);
    (unicast_floor, class_floor)
}

/// What one candidate evaluation concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Feasibility {
    /// The candidate's simulation met every target.
    Feasible {
        /// Worst delivered TS latency, in µs (for the bound-vs-sim
        /// margin).
        worst_latency_us: f64,
        /// The run's highest per-queue occupancy on any port
        /// ([`tsn_sim::SimReport::max_queue_high_water`]).
        queue_high_water: usize,
        /// The run's highest buffer-pool occupancy on any port
        /// ([`tsn_sim::SimReport::max_pool_high_water`]).
        pool_high_water: usize,
    },
    /// Rejected by an analytic floor — never simulated.
    BoundFail(String),
    /// The network build errored or the simulation missed a target.
    SimFail(String),
}

impl Feasibility {
    /// `true` for [`Feasibility::Feasible`].
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible { .. })
    }
}

/// A solved query: the locally minimal configuration and the search's
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The cheapest configuration found.
    pub config: ResourceConfig,
    /// Its price (BRAM36 blocks, register bits).
    pub cost: CostKey,
    /// The CQF slot the plan chose.
    pub slot: SimDuration,
    /// Eq. (1) upper bound at the worst hop count, µs.
    pub bound_worst_us: f64,
    /// Worst simulated TS latency of the returned config, µs.
    pub observed_worst_us: f64,
    /// Candidate simulations this search ran (memoized lookups of other
    /// queries excluded).
    pub sims: u64,
    /// Candidates rejected without a simulation: by an analytic floor,
    /// or by the certified candidate's occupancy witness.
    pub pruned: u64,
}

impl SearchOutcome {
    /// Eq. (1) slack of the returned configuration: analytic bound minus
    /// observed worst latency, µs (non-negative when Eq. (1) holds).
    #[must_use]
    pub fn margin_us(&self) -> f64 {
        self.bound_worst_us - self.observed_worst_us
    }
}

/// The verdict for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryStatus {
    /// A locally minimal configuration meets the targets.
    Feasible(SearchOutcome),
    /// No configuration can (or the planner rejected the query).
    Infeasible {
        /// Which stage rejected the query (`plan` = analytic, `confirm`
        /// = the derived upper bound already misses a target).
        stage: String,
        /// The structured error, rendered.
        reason: String,
    },
}

/// One answered query: the caller's label plus the shared status (equal
/// fingerprints share one memoized search).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The caller-chosen label, echoed.
    pub label: String,
    /// The query fingerprint ([`QosQuery::fingerprint`]).
    pub fingerprint: u64,
    /// The verdict.
    pub status: QueryStatus,
}

/// Counter snapshots of the engine's three memo layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Query → plan (topology, flows, CQF, ITP, floors).
    pub plans: CacheStats,
    /// (query, candidate config) → simulation verdict.
    pub candidates: CacheStats,
    /// Query fingerprint → finished search.
    pub answers: CacheStats,
}

/// The warm design-space-search engine: every layer of work — planning,
/// candidate simulation, whole searches — is memoized on a
/// [`PlanCache`], so repeated or overlapping queries are answered from
/// cache. Shareable across threads (`run_sweep` workers hit the same
/// caches).
#[derive(Debug, Default)]
pub struct DseEngine {
    plans: PlanCache<u64, Arc<TsnResult<PlannedQuery>>>,
    candidates: PlanCache<(u64, ResourceConfig), Feasibility>,
    answers: PlanCache<u64, QueryStatus>,
}

impl DseEngine {
    /// An engine with cold caches.
    #[must_use]
    pub fn new() -> Self {
        DseEngine::default()
    }

    /// Counter snapshots of all three memo layers. Each [`PlanCache`]
    /// computes every distinct key exactly once, so the snapshot is
    /// byte-deterministic for a fixed batch regardless of worker count.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            plans: self.plans.stats(),
            candidates: self.candidates.stats(),
            answers: self.answers.stats(),
        }
    }

    /// The memoized plan for `query` (Eq. (1) slot choice, ITP, floors).
    pub fn plan(&self, query: &QosQuery) -> Arc<TsnResult<PlannedQuery>> {
        self.plans
            .get_or_compute(query.fingerprint(), || Arc::new(PlannedQuery::plan(query)))
    }

    /// Evaluates one candidate with bounds first, then the memoized
    /// simulation: bound-rejected candidates never reach the simulator.
    ///
    /// A candidate's simulation stops at the first event that makes it
    /// certain to miss a target ([`tsn_sim::Network::run_bounded`]), so
    /// its verdict equals [`DseEngine::simulate`]'s while a failing run
    /// costs only the events up to its first loss or miss. The derived
    /// configuration runs in full: its failure reason is the
    /// confirm-stage answer a caller reads.
    pub fn feasibility(&self, planned: &PlannedQuery, cfg: &ResourceConfig) -> Feasibility {
        self.feasibility_counted(planned, cfg, &mut 0, &mut 0)
    }

    /// Every `(query fingerprint, candidate)` pair this engine simulated,
    /// in no particular order: the candidates whose memoized verdicts the
    /// searches read.
    #[must_use]
    pub fn simulated_candidates(&self) -> Vec<(u64, ResourceConfig)> {
        self.candidates.keys()
    }

    fn feasibility_counted(
        &self,
        planned: &PlannedQuery,
        cfg: &ResourceConfig,
        sims: &mut u64,
        pruned: &mut u64,
    ) -> Feasibility {
        if let Err(reason) = planned.bound_check(cfg) {
            *pruned += 1;
            return Feasibility::BoundFail(reason);
        }
        let key = (planned.fingerprint, cfg.clone());
        self.candidates.get_or_compute(key, || {
            *sims += 1;
            let stop_early = *cfg != planned.derived.resources;
            Self::evaluate(planned, cfg, stop_early)
        })
    }

    /// Builds and runs the candidate network to the end, uncached and
    /// without the bound pre-check — the raw ground truth the floors and
    /// the search's early-stopped runs are validated against (see
    /// `tests/properties.rs`).
    #[must_use]
    pub fn simulate(planned: &PlannedQuery, cfg: &ResourceConfig) -> Feasibility {
        Self::evaluate(planned, cfg, false)
    }

    /// Builds the candidate network and checks its run against every
    /// target; with `stop_early` the run ends at its first certain
    /// failure, whose reason then names what was seen up to that event.
    fn evaluate(planned: &PlannedQuery, cfg: &ResourceConfig, stop_early: bool) -> Feasibility {
        // Incremental path: the planned template keeps topology, routes
        // and the install program resident; only the candidate's
        // resource knobs are patched in. Byte-identical to a
        // from-scratch `Network::build` with the same effective config.
        let network = match planned
            .template
            .reconfigure(&ConfigDelta::resources(cfg.clone()))
        {
            Ok(network) => network,
            Err(e) => return Feasibility::SimFail(format!("network build: {e}")),
        };
        let query = &planned.query;
        let report = if stop_early {
            match network.run_bounded(query.max_lost) {
                Ok(report) => report,
                Err(stop) if stop.ts_lost > query.max_lost => {
                    return Feasibility::SimFail(format!(
                        "lost {} TS frames by {}, target allows {}",
                        stop.ts_lost, stop.at, query.max_lost
                    ))
                }
                Err(stop) => {
                    return Feasibility::SimFail(format!(
                        "{} delivered TS frames missed the {} deadline by {}",
                        stop.ts_deadline_misses, query.deadline, stop.at
                    ))
                }
            }
        } else {
            network.run()
        };

        if report.ts_lost() > query.max_lost {
            return Feasibility::SimFail(format!(
                "lost {} TS frames, target allows {}",
                report.ts_lost(),
                query.max_lost
            ));
        }
        if report.ts_deadline_misses() > 0 {
            return Feasibility::SimFail(format!(
                "{} delivered TS frames missed the {} deadline",
                report.ts_deadline_misses(),
                query.deadline
            ));
        }
        if let Some(jitter) = query.jitter {
            for flow in planned.requirements.flows().ts_flows() {
                let Some(record) = report.analyzer.flow(flow.id()) else {
                    continue;
                };
                let (Some(min), Some(max)) = (record.latency.min(), record.latency.max()) else {
                    continue;
                };
                let spread = max.saturating_sub(min);
                if spread > jitter {
                    return Feasibility::SimFail(format!(
                        "{}: jitter {spread} exceeds the {jitter} target",
                        flow.id()
                    ));
                }
            }
        }
        let worst = report
            .ts_latency()
            .max()
            .map_or(0.0, SimDuration::as_micros_f64);
        Feasibility::Feasible {
            worst_latency_us: worst,
            queue_high_water: report.max_queue_high_water,
            pool_high_water: report.max_pool_high_water,
        }
    }

    /// Answers a query: memoized end to end, label re-attached per call.
    pub fn answer(&self, query: &QosQuery) -> QueryResult {
        let fingerprint = query.fingerprint();
        let status = self
            .answers
            .get_or_compute(fingerprint, || self.search(query));
        QueryResult {
            label: query.label.clone(),
            fingerprint,
            status,
        }
    }

    /// The uncached search. First the certify step: the ITP-peak
    /// candidate is returned when it passes and every single-knob
    /// step-down fails. On a miss, confirm the derived upper bound,
    /// bisect each knob down to its minimum, then polish with single
    /// steps until no knob can move. Either way the returned config is
    /// locally minimal by construction, which is exactly what the
    /// `dse-optimality` oracle re-checks.
    fn search(&self, query: &QosQuery) -> QueryStatus {
        let planned = self.plan(query);
        let planned = match planned.as_ref() {
            Ok(p) => p,
            Err(e) => {
                return QueryStatus::Infeasible {
                    stage: "plan".to_owned(),
                    reason: e.to_string(),
                }
            }
        };
        let (mut sims, mut pruned) = (0u64, 0u64);
        let (cfg, worst_latency_us) = match self.certify(planned, &mut sims, &mut pruned) {
            Some(certified) => certified,
            None => match self.descend(planned, &mut sims, &mut pruned) {
                Ok(found) => found,
                Err(reason) => {
                    return QueryStatus::Infeasible {
                        stage: "confirm".to_owned(),
                        reason: format!(
                            "the guideline-derived configuration already misses a target: {reason}"
                        ),
                    }
                }
            },
        };
        QueryStatus::Feasible(SearchOutcome {
            cost: CostKey::of(&cfg),
            config: cfg,
            slot: planned.cqf.slot,
            bound_worst_us: planned.cqf.worst_latency.as_micros_f64(),
            observed_worst_us: worst_latency_us,
            sims,
            pruned,
        })
    }

    /// The certify step: the [`PlannedQuery::peak_candidate`] and its
    /// worst latency when its simulation passes and every single-knob
    /// step-down fails — the [`check_optimality`] test. The table and
    /// meter step-downs fail on their floors; `queue_depth − 1` and
    /// `buffer_num − 1` fail on the candidate run's occupancy witness
    /// ([`PlannedQuery::witness_rules_out`]) or, where it does not
    /// apply, on one simulation each.
    fn certify(
        &self,
        planned: &PlannedQuery,
        sims: &mut u64,
        pruned: &mut u64,
    ) -> Option<(ResourceConfig, f64)> {
        let candidate = planned.peak_candidate().ok()?;
        let passed = self.feasibility_counted(planned, &candidate, sims, pruned);
        let Feasibility::Feasible {
            worst_latency_us, ..
        } = passed
        else {
            return None;
        };
        let minimal = KNOBS.iter().all(|&knob| {
            step_down(&candidate, knob).is_none_or(|smaller| {
                if planned.witness_rules_out(&candidate, knob, &passed) {
                    *pruned += 1;
                    return true;
                }
                !self
                    .feasibility_counted(planned, &smaller, sims, pruned)
                    .is_feasible()
            })
        });
        minimal.then_some((candidate, worst_latency_us))
    }

    /// The fallback search: confirm the derived upper bound (`Err` with
    /// the reason when it misses a target), bisect each knob down to its
    /// minimum, then polish with single steps to a fixpoint.
    fn descend(
        &self,
        planned: &PlannedQuery,
        sims: &mut u64,
        pruned: &mut u64,
    ) -> Result<(ResourceConfig, f64), String> {
        let mut cfg = planned.derived.resources.clone();
        match self.feasibility_counted(planned, &cfg, sims, pruned) {
            Feasibility::Feasible { .. } => {}
            Feasibility::BoundFail(reason) | Feasibility::SimFail(reason) => return Err(reason),
        }

        // Coordinate descent: bisect each knob over [1, current] with the
        // invariant `hi` feasible / `lo − 1` infeasible (0 is rejected by
        // the Table II validation, so the initial invariant holds).
        for knob in KNOBS {
            let mut hi = knob.value(&cfg);
            let mut lo = 1u32;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let feasible = match knob.with_value(&cfg, mid) {
                    Ok(candidate) => self
                        .feasibility_counted(planned, &candidate, sims, pruned)
                        .is_feasible(),
                    Err(_) => false,
                };
                if feasible {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            cfg = knob
                .with_value(&cfg, hi)
                .expect("bisection endpoint was validated feasible");
        }

        // Polish: bisection minimized each knob against the *then-current*
        // later knobs; re-walk single steps until a fixpoint so local
        // minimality holds at the final configuration even if feasibility
        // interacts across knobs.
        loop {
            let mut improved = false;
            for knob in KNOBS {
                while let Some(candidate) = step_down(&cfg, knob) {
                    if self
                        .feasibility_counted(planned, &candidate, sims, pruned)
                        .is_feasible()
                    {
                        cfg = candidate;
                        improved = true;
                    } else {
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        let Feasibility::Feasible {
            worst_latency_us, ..
        } = self.feasibility_counted(planned, &cfg, sims, pruned)
        else {
            unreachable!("the search only moves between feasible configurations");
        };
        Ok((cfg, worst_latency_us))
    }
}

/// Re-checks both directions of a claimed optimum for `query`:
///
/// 1. **Meets targets** — the configuration's own confirming simulation
///    passes every QoS target.
/// 2. **Locally minimal** — stepping any single monotone knob down one
///    notch trips an analytic bound, the Table II validation, or the
///    confirming simulation.
///
/// This is the `dse-optimality` verify oracle's core; it deliberately
/// goes through [`DseEngine::feasibility`] (bounds + real simulations),
/// not through the search's own bookkeeping.
///
/// # Errors
///
/// A human-readable description of the violated direction.
pub fn check_optimality(
    engine: &DseEngine,
    query: &QosQuery,
    config: &ResourceConfig,
) -> Result<(), String> {
    let planned = engine.plan(query);
    let planned = match planned.as_ref() {
        Ok(p) => p,
        Err(e) => return Err(format!("query does not plan: {e}")),
    };
    match engine.feasibility(planned, config) {
        Feasibility::Feasible { .. } => {}
        Feasibility::BoundFail(reason) => {
            return Err(format!(
                "claimed optimum violates an analytic bound: {reason}"
            ))
        }
        Feasibility::SimFail(reason) => {
            return Err(format!(
                "claimed optimum fails its confirming simulation: {reason}"
            ))
        }
    }
    for knob in KNOBS {
        let Some(smaller) = step_down(config, knob) else {
            continue; // the Table II validation floor: a bound failure
        };
        if engine.feasibility(planned, &smaller).is_feasible() {
            return Err(format!(
                "not locally minimal: {} = {} steps down to {} and still \
                 meets every target",
                knob.name(),
                knob.value(config),
                knob.value(&smaller),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TopologySpec;

    fn query() -> QosQuery {
        QosQuery {
            label: "ring-6".into(),
            topology: TopologySpec::Named {
                kind: "ring".into(),
                switches: 3,
                hosts: 2,
            },
            ts_count: 6,
            frame_bytes: 128,
            period: SimDuration::from_millis(2),
            seed: 11,
            deadline: SimDuration::from_millis(4),
            jitter: None,
            max_lost: 0,
            duration: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn knobs_round_trip_values() {
        let cfg = ResourceConfig::new();
        for knob in KNOBS {
            let v = knob.value(&cfg);
            let bumped = knob.with_value(&cfg, v + 3).expect("valid");
            assert_eq!(knob.value(&bumped), v + 3);
            for other in KNOBS {
                if other != knob {
                    assert_eq!(other.value(&bumped), other.value(&cfg), "{:?}", other);
                }
            }
        }
    }

    #[test]
    fn step_down_stops_at_the_validation_floor() {
        let cfg = ResourceConfig::new();
        let mut depth_one = Knob::QueueDepth.with_value(&cfg, 1).expect("valid");
        assert!(
            step_down(&depth_one, Knob::QueueDepth).is_none(),
            "depth 0 invalid"
        );
        depth_one = Knob::MeterTbl.with_value(&depth_one, 1).expect("valid");
        assert!(
            step_down(&depth_one, Knob::MeterTbl).is_none(),
            "meter 0 invalid"
        );
    }

    #[test]
    fn search_finds_a_locally_minimal_config() {
        let engine = DseEngine::new();
        let result = engine.answer(&query());
        let QueryStatus::Feasible(outcome) = &result.status else {
            panic!("expected a feasible answer, got {:?}", result.status);
        };
        let derived_cost = {
            let planned = engine.plan(&query());
            let planned = planned.as_ref().as_ref().expect("plans");
            CostKey::of(&planned.derived.resources)
        };
        assert!(
            outcome.cost <= derived_cost,
            "search must not cost more than derivation"
        );
        assert!(
            outcome.margin_us() >= 0.0,
            "Eq. (1) must bound the observed latency"
        );
        assert!(outcome.sims > 0, "the confirmation alone is one simulation");
        check_optimality(&engine, &query(), &outcome.config).expect("both directions hold");
    }

    #[test]
    fn every_candidate_simulation_is_patched() {
        let engine = DseEngine::new();
        let QueryStatus::Feasible(outcome) = engine.answer(&query()).status else {
            panic!("feasible query");
        };
        let planned = engine.plan(&query());
        let planned = planned.as_ref().as_ref().expect("plans");
        assert_eq!(
            planned.template.reconfigure_stats(),
            tsn_sim::ReconfigureStats {
                patched: outcome.sims,
                replayed: 0
            }
        );
    }

    #[test]
    fn optimality_check_rejects_an_over_provisioned_config() {
        let engine = DseEngine::new();
        let result = engine.answer(&query());
        let QueryStatus::Feasible(outcome) = result.status else {
            panic!("feasible query");
        };
        let padded = Knob::QueueDepth
            .with_value(&outcome.config, Knob::QueueDepth.value(&outcome.config) + 4)
            .expect("valid");
        let err = check_optimality(&engine, &query(), &padded).expect_err("planted defect");
        assert!(err.contains("not locally minimal"), "{err}");
        assert!(err.contains("queue_depth"), "{err}");
    }

    #[test]
    fn infeasible_deadline_is_pruned_analytically() {
        let mut q = query();
        q.deadline = SimDuration::from_nanos(500); // below any whole-µs slot
        let engine = DseEngine::new();
        let result = engine.answer(&q);
        let QueryStatus::Infeasible { stage, reason } = &result.status else {
            panic!("expected infeasible, got {:?}", result.status);
        };
        assert_eq!(stage, "plan");
        assert!(!reason.is_empty());
        assert_eq!(engine.stats().candidates.misses, 0, "no simulation ran");
    }

    #[test]
    fn repeated_queries_share_one_search() {
        let engine = DseEngine::new();
        let a = engine.answer(&query());
        let mut relabeled = query();
        relabeled.label = "same-but-renamed".into();
        let b = engine.answer(&relabeled);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.status, b.status);
        assert_eq!(b.label, "same-but-renamed");
        let stats = engine.stats();
        assert_eq!(stats.answers.misses, 1, "one search, two lookups");
        assert_eq!(stats.answers.hits, 1);
    }
}
