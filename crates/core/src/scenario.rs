//! Scenario descriptors and the parallel scenario sweep.
//!
//! The paper's customization loop (Fig. 1) — and every evaluation table
//! and figure — is a sweep over `(topology × workload × resources)`
//! points. This module gives that loop a first-class API: describe each
//! point as a [`Scenario`], hand the list to [`run_scenarios`], and get
//! per-scenario [`ScenarioOutcome`]s back **in input order**, computed on
//! a bounded worker pool ([`tsn_sim::sweep`]) with shared planning work
//! (CQF slot feasibility, ITP injection plans, derived resource
//! configurations) memoized behind concurrent caches: two sweep points
//! that plan the same flows at the same slot plan them once.
//!
//! # Example
//!
//! ```
//! use tsn_builder::scenario::{run_scenarios, Scenario};
//! use tsn_builder::workloads;
//! use tsn_sim::network::{SimConfig, SyncSetup};
//! use tsn_topology::presets;
//! use tsn_types::SimDuration;
//!
//! let mut scenarios = Vec::new();
//! for hops in 1..=2u64 {
//!     let topo = presets::ring(3, 2)?;
//!     let flows = workloads::iec60802_ts_flows(&topo, 8, 7)?;
//!     let mut config = SimConfig::paper_defaults();
//!     config.duration = SimDuration::from_millis(20);
//!     config.sync = SyncSetup::Perfect;
//!     scenarios.push(Scenario::explicit(format!("hops={hops}"), topo, flows, config));
//! }
//! let outcomes = run_scenarios(&scenarios, 2);
//! assert_eq!(outcomes.len(), 2);
//! for outcome in outcomes {
//!     assert_eq!(outcome?.report.ts_lost(), 0);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cqf::CqfPlan;
use crate::derive::{derive_parameters, DeriveOptions, DerivedConfig};
use crate::itp::{self, ItpResult, Strategy};
use crate::requirements::AppRequirements;
use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;
use tsn_resource::ResourceConfig;
use tsn_sim::network::{ConfigDelta, NetworkTemplate, SimConfig};
use tsn_sim::report::SimReport;
use tsn_sim::sweep::{run_sweep, PlanCache, SweepError};
use tsn_topology::Topology;
use tsn_types::{DataRate, SimDuration, TsnResult};

/// Required synchronization precision every scenario is validated
/// against.
const SYNC_PRECISION: SimDuration = SimDuration::from_nanos(50);
/// Link rate for CQF slot feasibility under [`ResourcePlan::Explicit`].
const LINK_RATE: DataRate = DataRate::gbps(1);
/// Injection-offset strategy under [`ResourcePlan::Explicit`].
const STRATEGY: Strategy = Strategy::GreedyLeastLoaded;

/// How a scenario gets its `ResourceConfig` (and CQF slot).
#[derive(Debug, Clone)]
pub enum ResourcePlan {
    /// Use `config.slot` and `config.resources` exactly as given; only
    /// the ITP injection offsets are planned.
    Explicit,
    /// Run the full TSN-Builder derivation (`derive_parameters`) with
    /// these options; [`DerivedConfig::template`] applies the derived
    /// slot, resources, aggregation mode, injection offsets and gate
    /// schedule over the scenario's `SimConfig`.
    Derive(DeriveOptions),
}

/// One sweep point: a complete, self-contained simulation input.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label carried into the outcome (e.g. `"hops=3"`).
    pub label: String,
    /// The network.
    pub topology: Topology,
    /// The workload.
    pub flows: FlowSet,
    /// Resource selection mode.
    pub plan: ResourcePlan,
    /// Simulation parameters (duration, sync, preemption, …).
    pub config: SimConfig,
}

use tsn_types::FlowSet;

impl Scenario {
    /// A scenario that simulates exactly `config` (slot + resources as
    /// given), planning only the ITP offsets.
    #[must_use]
    pub fn explicit(
        label: impl Into<String>,
        topology: Topology,
        flows: FlowSet,
        config: SimConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            topology,
            flows,
            plan: ResourcePlan::Explicit,
            config,
        }
    }

    /// A scenario that derives its resources via TSN-Builder first.
    #[must_use]
    pub fn derived(
        label: impl Into<String>,
        topology: Topology,
        flows: FlowSet,
        options: DeriveOptions,
        config: SimConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            topology,
            flows,
            plan: ResourcePlan::Derive(options),
            config,
        }
    }

    /// Arms fault injection ([`tsn_sim::FaultConfig`]) for this scenario.
    /// The default is [`tsn_sim::FaultConfig::none()`], which leaves the
    /// simulation bit-for-bit identical to a build without the fault
    /// subsystem.
    #[must_use]
    pub fn with_faults(mut self, faults: tsn_sim::FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }
}

/// What one scenario produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub label: String,
    /// The resources the simulation actually ran with (derived or
    /// explicit).
    pub resources: ResourceConfig,
    /// The full derivation, when [`ResourcePlan::Derive`] was used.
    pub derived: Option<DerivedConfig>,
    /// The injection plan the talkers used.
    pub itp: ItpResult,
    /// The simulation report.
    pub report: SimReport,
}

/// In-process fingerprint of a value's structure, used as a memo key.
/// Debug output is deterministic and complete for the plain-data types
/// fingerprinted here (topology, flow set, derive options).
fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(format!("{value:?}").as_bytes());
    hasher.finish()
}

type PlanKey = (u64, u64, SimDuration);
type DeriveKey = (u64, u64, u64);
type TemplateKey = (u64, u64, u64);

/// The shared planning caches for one sweep (or one long-lived session).
///
/// Keys are structural fingerprints of `(topology, flows, …)`; values are
/// the full planning results, cloned out to each scenario that hits. Use
/// one planner per sweep ([`run_scenarios`] does) or keep one across
/// sweeps to share plans between them.
#[derive(Debug, Default)]
pub struct SweepPlanner {
    cqf: PlanCache<PlanKey, TsnResult<CqfPlan>>,
    itp: PlanCache<PlanKey, TsnResult<ItpResult>>,
    derived: PlanCache<DeriveKey, TsnResult<DerivedConfig>>,
    /// Resident [`NetworkTemplate`]s, keyed on everything a
    /// [`ConfigDelta`] *cannot* change: sweep points that differ only in
    /// resources / slot / aggregation / offsets share one template and
    /// reconfigure instead of rebuilding the world.
    templates: PlanCache<TemplateKey, TsnResult<Arc<NetworkTemplate>>>,
}

impl SweepPlanner {
    /// A planner with empty caches.
    #[must_use]
    pub fn new() -> Self {
        SweepPlanner::default()
    }

    /// Total planning-cache hits (CQF + ITP + derivation).
    #[must_use]
    pub fn planning_hits(&self) -> u64 {
        self.cqf.hits() + self.itp.hits() + self.derived.hits()
    }

    /// Total planning-cache misses, i.e. plans actually computed.
    #[must_use]
    pub fn planning_misses(&self) -> u64 {
        self.cqf.misses() + self.itp.misses() + self.derived.misses()
    }

    /// Scenarios served by an already-resident [`NetworkTemplate`]
    /// (incremental reconfiguration instead of a from-scratch build).
    #[must_use]
    pub fn template_hits(&self) -> u64 {
        self.templates.hits()
    }

    /// Templates actually built (route computation + sync warmup).
    #[must_use]
    pub fn template_misses(&self) -> u64 {
        self.templates.misses()
    }

    /// Plans and runs one scenario (synchronously, on the caller's
    /// thread), sharing any cached planning work.
    ///
    /// # Errors
    ///
    /// Propagates validation, planning and network-assembly errors.
    pub fn run_one(&self, scenario: &Scenario) -> TsnResult<ScenarioOutcome> {
        let requirements = AppRequirements::new(
            scenario.topology.clone(),
            scenario.flows.clone(),
            SYNC_PRECISION,
        )?;
        let topo_fp = fingerprint(&scenario.topology);
        let flows_fp = fingerprint(&scenario.flows);

        match &scenario.plan {
            ResourcePlan::Derive(options) => {
                let key = (topo_fp, flows_fp, fingerprint(options));
                let derived = self
                    .derived
                    .get_or_compute(key, || derive_parameters(&requirements, options))?;
                let network = derived
                    .template(
                        scenario.topology.clone(),
                        scenario.flows.clone(),
                        scenario.config.clone(),
                    )?
                    .instantiate()?;
                Ok(ScenarioOutcome {
                    label: scenario.label.clone(),
                    resources: derived.resources.clone(),
                    itp: derived.itp.clone(),
                    derived: Some(derived),
                    report: network.run(),
                })
            }
            ResourcePlan::Explicit => {
                let slot = scenario.config.slot;
                let key = (topo_fp, flows_fp, slot);
                let plan = self
                    .cqf
                    .get_or_compute(key, || CqfPlan::with_slot(&requirements, slot, LINK_RATE))?;
                let planned = self
                    .itp
                    .get_or_compute(key, || itp::plan(&requirements, &plan, STRATEGY))?;
                // Split the config into a template base (everything a
                // ConfigDelta cannot change, with the delta-able knobs
                // pinned to paper defaults) and the delta that restores
                // this scenario's knobs. Points that differ only in the
                // knobs share one resident template.
                let defaults = SimConfig::paper_defaults();
                let mut base = scenario.config.clone();
                let delta = ConfigDelta {
                    resources: Some(std::mem::replace(
                        &mut base.resources,
                        defaults.resources.clone(),
                    )),
                    per_switch_resources: Some(std::mem::replace(
                        &mut base.per_switch_resources,
                        defaults.per_switch_resources.clone(),
                    )),
                    slot: Some(std::mem::replace(&mut base.slot, defaults.slot)),
                    aggregate_switch_tbl: Some(std::mem::replace(
                        &mut base.aggregate_switch_tbl,
                        defaults.aggregate_switch_tbl,
                    )),
                    offsets: Some(planned.offsets.clone()),
                };
                let template_key = (topo_fp, flows_fp, fingerprint(&base));
                let template = self.templates.get_or_compute(template_key, || {
                    NetworkTemplate::new(
                        scenario.topology.clone(),
                        scenario.flows.clone(),
                        &planned.offsets,
                        base.clone(),
                    )
                    .map(Arc::new)
                })?;
                let report = template.reconfigure(&delta)?.run();
                Ok(ScenarioOutcome {
                    label: scenario.label.clone(),
                    resources: scenario.config.resources.clone(),
                    derived: None,
                    itp: planned,
                    report,
                })
            }
        }
    }

    /// Runs every scenario across at most `workers` threads; results are
    /// in input order and a failing or panicking scenario only loses its
    /// own slot.
    pub fn run(
        &self,
        scenarios: &[Scenario],
        workers: usize,
    ) -> Vec<Result<ScenarioOutcome, SweepError>> {
        run_sweep(scenarios, workers, |_idx, scenario| self.run_one(scenario))
    }
}

/// Runs a scenario sweep with a fresh [`SweepPlanner`]. See the module
/// docs for an example.
pub fn run_scenarios(
    scenarios: &[Scenario],
    workers: usize,
) -> Vec<Result<ScenarioOutcome, SweepError>> {
    SweepPlanner::new().run(scenarios, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use tsn_sim::network::{Network, SyncSetup};
    use tsn_topology::presets;

    fn small_config() -> SimConfig {
        let mut config = SimConfig::paper_defaults();
        config.duration = SimDuration::from_millis(20);
        config.sync = SyncSetup::Perfect;
        config
    }

    fn sweep_inputs(n: u64) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                let topo = presets::ring(3, 2).expect("builds");
                let flows =
                    workloads::iec60802_ts_flows(&topo, 8 + (i % 3) as u32, 7).expect("workload");
                Scenario::explicit(format!("s{i}"), topo, flows, small_config())
            })
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_reports() {
        let scenarios = sweep_inputs(6);
        let serial: Vec<SimReport> = scenarios
            .iter()
            .map(|s| {
                SweepPlanner::new()
                    .run_one(s)
                    .expect("scenario runs")
                    .report
            })
            .collect();
        for workers in [1, 4] {
            let swept = run_scenarios(&scenarios, workers);
            assert_eq!(swept.len(), serial.len());
            for (got, want) in swept.into_iter().zip(&serial) {
                let got = got.expect("scenario runs");
                assert_eq!(
                    &got.report, want,
                    "sweep with {workers} workers must reproduce the serial loop"
                );
            }
        }
    }

    #[test]
    fn two_builds_of_the_same_scenario_are_identical() {
        let scenarios = sweep_inputs(1);
        let a = SweepPlanner::new().run_one(&scenarios[0]).expect("runs");
        let b = SweepPlanner::new().run_one(&scenarios[0]).expect("runs");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn duplicate_planning_inputs_hit_the_cache() {
        // 6 scenarios over 2 distinct (topology, flows, slot) planning
        // inputs: 2 misses per cache, the rest hits.
        let topo = presets::ring(3, 2).expect("builds");
        let flows_a = workloads::iec60802_ts_flows(&topo, 8, 7).expect("workload");
        let flows_b = workloads::iec60802_ts_flows(&topo, 12, 7).expect("workload");
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                let flows = if i % 2 == 0 { &flows_a } else { &flows_b };
                Scenario::explicit(format!("s{i}"), topo.clone(), flows.clone(), small_config())
            })
            .collect();
        let planner = SweepPlanner::new();
        let results = planner.run(&scenarios, 3);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(planner.planning_misses(), 4, "2 CQF plans + 2 ITP plans");
        assert_eq!(planner.planning_hits(), 8, "4 CQF hits + 4 ITP hits");
    }

    #[test]
    fn derivation_is_cached_by_flows_and_options() {
        let topo = presets::ring(6, 3).expect("builds");
        let flows = workloads::iec60802_ts_flows(&topo, 64, 7).expect("workload");
        let mut options = DeriveOptions::automatic();
        options.slot = Some(crate::cqf::PAPER_SLOT);
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| {
                Scenario::derived(
                    format!("d{i}"),
                    topo.clone(),
                    flows.clone(),
                    options.clone(),
                    small_config(),
                )
            })
            .collect();
        let planner = SweepPlanner::new();
        let results = planner.run(&scenarios, 3);
        for result in &results {
            let outcome = result.as_ref().expect("scenario runs");
            assert!(outcome.derived.is_some());
            assert_eq!(outcome.report.ts_lost(), 0);
        }
        assert_eq!(
            planner.derived.misses(),
            1,
            "one derivation for 3 scenarios"
        );
        assert_eq!(planner.derived.hits(), 2);
    }

    #[test]
    fn resource_only_sweeps_share_one_template() {
        // Two resource cases over the same (topology, flows, slot):
        // Fig. 2's shape. One template, second point served by
        // reconfigure — and both reports byte-identical to a
        // from-scratch Network::build.
        let topo = presets::ring(3, 2).expect("builds");
        let flows = workloads::iec60802_ts_flows(&topo, 8, 7).expect("workload");
        let mut lean = small_config();
        lean.resources = tsn_resource::ResourceConfig::new();
        let fat = small_config();
        let scenarios = vec![
            Scenario::explicit("lean", topo.clone(), flows.clone(), lean),
            Scenario::explicit("fat", topo.clone(), flows.clone(), fat),
        ];
        let planner = SweepPlanner::new();
        let outcomes = planner.run(&scenarios, 2);
        assert_eq!(planner.template_misses(), 1, "one shared template");
        assert_eq!(planner.template_hits(), 1);
        for (scenario, outcome) in scenarios.iter().zip(outcomes) {
            let outcome = outcome.expect("scenario runs");
            let scratch = Network::build(
                scenario.topology.clone(),
                scenario.flows.clone(),
                &outcome.itp.offsets,
                scenario.config.clone(),
            )
            .expect("builds")
            .run();
            assert_eq!(
                format!("{:?}", outcome.report),
                format!("{scratch:?}"),
                "reconfigured sweep point must match a from-scratch build"
            );
        }
    }

    #[test]
    fn with_faults_arms_degradation_reporting() {
        let mut scenarios = sweep_inputs(1);
        let faults = tsn_sim::FaultConfig {
            seed: 5,
            wire: tsn_sim::LinkFaultProfile {
                loss_prob: 0.05,
                corrupt_prob: 0.05,
            },
            ..tsn_sim::FaultConfig::none()
        };
        let scenario = scenarios.remove(0).with_faults(faults);
        let outcome = SweepPlanner::new().run_one(&scenario).expect("runs");
        assert!(outcome.report.degradation.faults_enabled);
        assert!(
            outcome.report.degradation.frames_lost_to_faults() > 0,
            "5% wire faults over 20ms of traffic must claim at least one frame"
        );
    }

    #[test]
    fn a_bad_scenario_only_loses_its_own_slot() {
        let mut scenarios = sweep_inputs(3);
        // Middle scenario: flows whose endpoints are switches — invalid.
        let topo = presets::ring(3, 2).expect("builds");
        let sw = topo.switches()[0];
        let host = topo.hosts()[0];
        let mut flows = FlowSet::new();
        flows.push(
            tsn_types::TsFlowSpec::new(
                tsn_types::FlowId::new(0),
                host,
                sw,
                SimDuration::from_millis(10),
                SimDuration::from_millis(2),
                64,
            )
            .expect("spec valid in isolation")
            .into(),
        );
        scenarios[1] = Scenario::explicit("bad", topo, flows, small_config());
        let results = run_scenarios(&scenarios, 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SweepError::Failed(_))));
        assert!(results[2].is_ok());
    }
}
