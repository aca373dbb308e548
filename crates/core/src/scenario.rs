//! Scenario descriptors and the parallel scenario sweep.
//!
//! The paper's customization loop (Fig. 1) — and every evaluation table
//! and figure — is a sweep over `(topology × workload × resources)`
//! points. This module gives that loop a first-class API: describe each
//! point as a [`Scenario`] — a label, the application requirements it
//! runs on, a resource plan and a simulation config — hand the list to
//! [`run_scenarios`], and get per-scenario [`ScenarioOutcome`]s back **in
//! input order**, computed on a bounded worker pool ([`tsn_sim::sweep`]).
//!
//! Points over one network share one [`AppRequirements`] behind an
//! `Arc`, so its flows are validated and routed once for the whole
//! sweep, and every template built from it shares its topology and flow
//! set. Shared planning work (CQF slot feasibility, ITP injection plans,
//! derived resource configurations, resident network templates) is
//! memoized behind concurrent caches keyed by the requirements'
//! [`AppRequirements::digest`]: two sweep points that plan the same
//! flows at the same slot plan them once.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tsn_builder::requirements::AppRequirements;
//! use tsn_builder::scenario::{run_scenarios, Scenario};
//! use tsn_builder::workloads;
//! use tsn_sim::network::{SimConfig, SyncSetup};
//! use tsn_topology::presets;
//! use tsn_types::SimDuration;
//!
//! let topo = presets::ring(3, 2)?;
//! let flows = workloads::iec60802_ts_flows(&topo, 8, 7)?;
//! let requirements = Arc::new(AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?);
//! let mut scenarios = Vec::new();
//! for ms in [10, 20] {
//!     let mut config = SimConfig::paper_defaults();
//!     config.duration = SimDuration::from_millis(ms);
//!     config.sync = SyncSetup::Perfect;
//!     scenarios.push(Scenario::explicit(format!("{ms}ms"), Arc::clone(&requirements), config));
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
use std::sync::Arc;
use tsn_resource::ResourceConfig;
use tsn_sim::network::{ConfigDelta, GclSchedule, NetworkTemplate, SimConfig};
use tsn_sim::report::SimReport;
use tsn_sim::sweep::{run_sweep, PlanCache, SweepError};
use tsn_topology::presets::PRESET_RATE;
use tsn_types::digest::Digest;
use tsn_types::TsnResult;

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
    /// The network and workload, validated and routed once and shared
    /// by every point over them.
    pub requirements: Arc<AppRequirements>,
    /// Resource selection mode.
    pub plan: ResourcePlan,
    /// Simulation parameters (duration, sync, preemption, …).
    pub config: SimConfig,
}

impl Scenario {
    /// A scenario that simulates exactly `config` (slot + resources as
    /// given), planning only the ITP offsets.
    #[must_use]
    pub fn explicit(
        label: impl Into<String>,
        requirements: Arc<AppRequirements>,
        config: SimConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            requirements,
            plan: ResourcePlan::Explicit,
            config,
        }
    }

    /// A scenario that derives its resources via TSN-Builder first.
    #[must_use]
    pub fn derived(
        label: impl Into<String>,
        requirements: Arc<AppRequirements>,
        options: DeriveOptions,
        config: SimConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            requirements,
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

/// The shared planning caches for one sweep (or one long-lived session).
///
/// Each key is a [`Digest`] of the scenario's
/// [`AppRequirements::digest`] together with what else the cached value
/// depends on: the slot (CQF and ITP plans), the derive options
/// (derivations), or the template's base config and gate schedule
/// (resident templates). Values are the full planning results, cloned
/// out to each scenario that hits. Use one planner per sweep
/// ([`run_scenarios`] does) or keep one across sweeps to share plans
/// between them.
#[derive(Debug, Default)]
pub struct SweepPlanner {
    cqf: PlanCache<u64, TsnResult<CqfPlan>>,
    itp: PlanCache<u64, TsnResult<ItpResult>>,
    derived: PlanCache<u64, TsnResult<DerivedConfig>>,
    /// Resident [`NetworkTemplate`]s, keyed on everything a
    /// [`ConfigDelta`] *cannot* change: sweep points that differ only in
    /// resources / slot / aggregation / offsets share one template and
    /// reconfigure instead of rebuilding the world.
    templates: PlanCache<u64, TsnResult<Arc<NetworkTemplate>>>,
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

    /// Plans and runs one scenario (synchronously, on the caller's
    /// thread), sharing any cached planning work. The scenario's
    /// requirements are already routed, so this neither copies nor
    /// routes them.
    ///
    /// # Errors
    ///
    /// Propagates planning and network-assembly errors.
    pub fn run_one(&self, scenario: &Scenario) -> TsnResult<ScenarioOutcome> {
        let requirements = &*scenario.requirements;
        let identity = requirements.digest();
        let (base, mut delta) = split_config(&scenario.config);
        let (itp, gcls, derived) = match &scenario.plan {
            ResourcePlan::Derive(options) => {
                let derived = self
                    .derived
                    .get_or_compute(Digest::of(&(identity, options)), || {
                        derive_parameters(requirements, options)
                    })?;
                // The derived knobs replace the scenario's; its
                // per-switch overrides stay, as in `template`.
                delta = ConfigDelta {
                    per_switch_resources: delta.per_switch_resources,
                    ..derived.delta()
                };
                (derived.itp.clone(), derived.schedule(), Some(derived))
            }
            ResourcePlan::Explicit => {
                let slot = scenario.config.slot;
                let key = Digest::of(&(identity, slot));
                let plan = self
                    .cqf
                    .get_or_compute(key, || CqfPlan::with_slot(requirements, slot, PRESET_RATE))?;
                let planned = self
                    .itp
                    .get_or_compute(key, || itp::plan(requirements, &plan, STRATEGY))?;
                delta.offsets = Some(planned.offsets.clone());
                (planned, GclSchedule::new(), None)
            }
        };
        // The resident template for these requirements, base config and
        // gate schedule: built on first use, shared by every later point
        // that differs only in what the delta restores. `itp.offsets`
        // only seed the build; every point's delta carries its own.
        let key = Digest::of(&(identity, &base, &gcls));
        let template = self.templates.get_or_compute(key, || {
            requirements
                .template(&itp.offsets, base, gcls)
                .map(Arc::new)
        })?;
        Ok(ScenarioOutcome {
            label: scenario.label.clone(),
            resources: derived
                .as_ref()
                .map_or(&scenario.config.resources, |d| &d.resources)
                .clone(),
            derived,
            itp,
            report: template.reconfigure(&delta)?.run(),
        })
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

/// Splits `config` into a template base — everything a [`ConfigDelta`]
/// cannot change, with the delta-able knobs pinned to paper defaults —
/// and the delta restoring `config`'s knobs (offsets left to the
/// caller). Points that differ only in the knobs share one template.
fn split_config(config: &SimConfig) -> (SimConfig, ConfigDelta) {
    let defaults = SimConfig::paper_defaults();
    let mut base = config.clone();
    let delta = ConfigDelta {
        resources: Some(std::mem::replace(&mut base.resources, defaults.resources)),
        per_switch_resources: Some(std::mem::replace(
            &mut base.per_switch_resources,
            defaults.per_switch_resources,
        )),
        slot: Some(std::mem::replace(&mut base.slot, defaults.slot)),
        aggregate_switch_tbl: Some(std::mem::replace(
            &mut base.aggregate_switch_tbl,
            defaults.aggregate_switch_tbl,
        )),
        offsets: None,
    };
    (base, delta)
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
    use tsn_types::SimDuration;

    fn small_config() -> SimConfig {
        let mut config = SimConfig::paper_defaults();
        config.duration = SimDuration::from_millis(20);
        config.sync = SyncSetup::Perfect;
        config
    }

    /// The requirements of `ts` IEC 60802 flows on a 3-switch ring.
    fn ring_requirements(ts: u32) -> Arc<AppRequirements> {
        let topo = presets::ring(3, 2).expect("builds");
        let flows = workloads::iec60802_ts_flows(&topo, ts, 7).expect("workload");
        Arc::new(AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid"))
    }

    /// `n` explicit points over three flow sets, each set's points
    /// sharing one requirements value.
    fn sweep_inputs(n: u64) -> Vec<Scenario> {
        let requirements: Vec<_> = (8..11).map(ring_requirements).collect();
        (0..n)
            .map(|i| {
                let shared = Arc::clone(&requirements[(i % 3) as usize]);
                Scenario::explicit(format!("s{i}"), shared, small_config())
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
        // 6 scenarios over 2 distinct (requirements, slot) planning
        // inputs: 2 misses per cache, the rest hits. The second flow set
        // is built once per point, so equal content is what hits.
        let shared = ring_requirements(8);
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                let requirements = if i % 2 == 0 {
                    Arc::clone(&shared)
                } else {
                    ring_requirements(12)
                };
                Scenario::explicit(format!("s{i}"), requirements, small_config())
            })
            .collect();
        let planner = SweepPlanner::new();
        let results = planner.run(&scenarios, 3);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(planner.planning_misses(), 4, "2 CQF plans + 2 ITP plans");
        assert_eq!(planner.planning_hits(), 8, "4 CQF hits + 4 ITP hits");
    }

    #[test]
    fn derivation_is_cached_by_requirements_and_options() {
        let topo = presets::ring(6, 3).expect("builds");
        let flows = workloads::iec60802_ts_flows(&topo, 64, 7).expect("workload");
        let requirements = Arc::new(
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid"),
        );
        let mut options = DeriveOptions::automatic();
        options.slot = Some(crate::cqf::PAPER_SLOT);
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| {
                Scenario::derived(
                    format!("d{i}"),
                    Arc::clone(&requirements),
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
        // Two resource cases over the same (requirements, slot): Fig. 2's
        // shape. One template, second point served by reconfigure — and
        // both reports byte-identical to a from-scratch Network::build.
        let requirements = ring_requirements(8);
        let mut lean = small_config();
        lean.resources = tsn_resource::ResourceConfig::new();
        let fat = small_config();
        let scenarios = vec![
            Scenario::explicit("lean", Arc::clone(&requirements), lean),
            Scenario::explicit("fat", Arc::clone(&requirements), fat),
        ];
        let planner = SweepPlanner::new();
        let outcomes = planner.run(&scenarios, 2);
        assert_eq!(planner.templates.misses(), 1, "one shared template");
        assert_eq!(planner.templates.hits(), 1);
        for (scenario, outcome) in scenarios.iter().zip(outcomes) {
            let outcome = outcome.expect("scenario runs");
            let scratch = Network::build(
                requirements.topology().clone(),
                requirements.flows().clone(),
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
    fn derived_sweeps_share_one_template() {
        // Fig. 7(c)'s shape: derived points over one topology and flow
        // set at different slots. One template serves every point, and
        // each report equals the derivation's own template build.
        let requirements = ring_requirements(8);
        let scenarios: Vec<Scenario> = [33u64, 65, 130]
            .into_iter()
            .map(|slot| {
                let mut options = DeriveOptions::automatic();
                options.slot = Some(SimDuration::from_micros(slot));
                Scenario::derived(
                    format!("slot={slot}"),
                    Arc::clone(&requirements),
                    options,
                    small_config(),
                )
            })
            .collect();
        for outcome in assert_shares_one_template(&scenarios) {
            assert!(outcome.derived.expect("derived").tas.is_none());
        }

        // TAS points at one slot synthesize one gate schedule, so queue
        // depths over it reconfigure one scheduled template too.
        let tas: Vec<Scenario> = [None, Some(8), Some(16)]
            .into_iter()
            .map(|depth| {
                let mut options = DeriveOptions::paper();
                options.gate_mode = crate::derive::GateMode::Tas;
                options.queue_depth_override = depth;
                Scenario::derived(
                    format!("tas depth={depth:?}"),
                    Arc::clone(&requirements),
                    options,
                    small_config(),
                )
            })
            .collect();
        for outcome in assert_shares_one_template(&tas) {
            assert!(outcome.derived.expect("derived").tas.is_some());
        }
    }

    /// Runs `scenarios` on one planner: one template miss serves them
    /// all, and each report equals its derivation's own template build.
    fn assert_shares_one_template(scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
        let planner = SweepPlanner::new();
        let outcomes = planner.run(scenarios, 2);
        assert_eq!(planner.templates.misses(), 1, "one shared template");
        assert_eq!(planner.templates.hits(), scenarios.len() as u64 - 1);
        let outcomes: Vec<ScenarioOutcome> = outcomes
            .into_iter()
            .map(|outcome| outcome.expect("scenario runs"))
            .collect();
        for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
            let derived = outcome.derived.as_ref().expect("derived");
            let own = derived
                .template(&scenario.requirements, scenario.config.clone())
                .and_then(|t| t.instantiate())
                .expect("builds")
                .run();
            assert_eq!(outcome.report, own, "{}", scenario.label);
            assert_eq!(format!("{:?}", outcome.report), format!("{own:?}"));
        }
        outcomes
    }

    #[test]
    fn templates_share_the_requirements_topology_and_flows() {
        // Explicit points at two slots and derived points at two slots,
        // all over one requirements value: every resident template the
        // planner builds holds that value's topology and flow set, not a
        // copy.
        let requirements = ring_requirements(8);
        let mut scenarios = Vec::new();
        for slot in [33u64, 65] {
            let mut config = small_config();
            config.slot = SimDuration::from_micros(slot);
            let mut options = DeriveOptions::automatic();
            options.slot = Some(config.slot);
            options.gate_mode = if slot == 33 {
                crate::derive::GateMode::Tas
            } else {
                crate::derive::GateMode::Cqf
            };
            scenarios.push(Scenario::explicit(
                format!("explicit {slot}"),
                Arc::clone(&requirements),
                config.clone(),
            ));
            scenarios.push(Scenario::derived(
                format!("derived {slot}"),
                Arc::clone(&requirements),
                options,
                config,
            ));
        }
        let planner = SweepPlanner::new();
        assert!(planner.run(&scenarios, 2).iter().all(Result::is_ok));
        let keys = planner.templates.keys();
        assert!(keys.len() >= 2, "the TAS point needs its own template");
        for key in keys {
            let template = planner
                .templates
                .get_or_compute(key, || unreachable!("every key is resident"))
                .expect("template builds");
            assert!(std::ptr::eq(&**template.flows(), requirements.flows()));
            assert!(std::ptr::eq(
                &**template.topology(),
                requirements.topology()
            ));
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
        // The middle point shares its requirements (and so its template)
        // with the others, but provisions a classification table too small
        // for its flows: it fails inside the sweep, at reconfigure.
        let mut scenarios = sweep_inputs(3);
        let mut config = small_config();
        config.resources.set_class_tbl(1).expect("valid size");
        scenarios[1] = Scenario::explicit("bad", Arc::clone(&scenarios[0].requirements), config);
        let results = run_scenarios(&scenarios, 3);
        assert!(results[0].is_ok());
        assert!(
            matches!(&results[1], Err(SweepError::Failed(e)) if e.to_string().contains("full")),
            "{:?}",
            results[1].as_ref().err()
        );
        assert!(results[2].is_ok());
    }
}
