//! Parameter derivation — Section III.C's resource-configuration
//! guidelines, mechanized.
//!
//! | guideline | rule | implementation |
//! |---|---|---|
//! | (1) switch/class/meter tables | entries = flow count (worst case) | rounded up to a power of two, floor 16 |
//! | (2) In/Out gate tables | entries = slots per cycle; CQF ⇒ 2 | from [`crate::cqf::CqfPlan`] |
//! | (3) CBS map/CBS tables | entries = RC queues in use | min(RC queue count, distinct RC queues used) |
//! | (4) queues/buffers | depth = peak slot occupancy (ITP); buffers = depth × queues | from [`crate::itp`] |
//! | (5) enabled ports | max TS egress ports towards other switches | [`tsn_topology::EnabledPorts`] |

use crate::cqf::CqfPlan;
use crate::itp::{self, ItpResult, Strategy};
use crate::requirements::AppRequirements;
use crate::tas::TasSchedule;
use tsn_resource::ResourceConfig;
use tsn_sim::network::{ConfigDelta, GclSchedule, NetworkTemplate, SimConfig};
use tsn_topology::EnabledPorts;
use tsn_types::{DataRate, SimDuration, TsnError, TsnResult};

/// Which gate-control program the switches run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateMode {
    /// Cyclic Queuing and Forwarding: two GCL entries, the paper's
    /// evaluation mode.
    Cqf,
    /// Synthesized 802.1Qbv windows: `gate_size` = slots per hyperperiod,
    /// TS gates closed outside the scheduled windows (see
    /// [`crate::tas`]).
    Tas,
}

/// Knobs of the derivation.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DeriveOptions {
    /// Slot to use; `None` lets [`CqfPlan::choose_slot`] pick the largest
    /// feasible one.
    pub slot: Option<SimDuration>,
    /// Link rate of the target network.
    pub link_rate: DataRate,
    /// Injection-planning strategy.
    pub strategy: Strategy,
    /// Queues per port (the paper's prototype uses 8).
    pub queue_num: u32,
    /// Override the ITP-derived queue depth (the paper pins 12, computed
    /// by the full optimizer of reference \[24\]). At least 1, and small
    /// enough that `queue_depth × queue_num` buffers fit in a `u32`.
    pub queue_depth_override: Option<u32>,
    /// Override the derived table size (the paper prints exactly 1024).
    pub table_size_override: Option<u32>,
    /// Override the CBS map/table entry count (the paper provisions all
    /// three RC queues per port regardless of the tested flow mix).
    pub cbs_override: Option<u32>,
    /// Gate-control program (CQF in the paper's evaluation).
    pub gate_mode: GateMode,
    /// Size the switch table per *destination* instead of per flow and
    /// install aggregated any-VLAN entries (guideline 1: "some table
    /// entries could be aggregated according to the transmission path").
    pub aggregate_switch_tbl: bool,
}

impl DeriveOptions {
    /// The paper's evaluation settings: 65 µs slot, 1 Gbps links, greedy
    /// ITP, 8 queues, depth 12, tables of 1024.
    #[must_use]
    pub fn paper() -> Self {
        DeriveOptions {
            slot: Some(crate::cqf::PAPER_SLOT),
            link_rate: DataRate::gbps(1),
            strategy: Strategy::GreedyLeastLoaded,
            queue_num: 8,
            queue_depth_override: Some(12),
            table_size_override: Some(1024),
            cbs_override: Some(3),
            gate_mode: GateMode::Cqf,
            aggregate_switch_tbl: false,
        }
    }

    /// Fully automatic derivation (no overrides).
    #[must_use]
    pub fn automatic() -> Self {
        DeriveOptions {
            slot: None,
            link_rate: DataRate::gbps(1),
            strategy: Strategy::GreedyLeastLoaded,
            queue_num: 8,
            queue_depth_override: None,
            table_size_override: None,
            cbs_override: None,
            gate_mode: GateMode::Cqf,
            aggregate_switch_tbl: false,
        }
    }
}

impl Default for DeriveOptions {
    fn default() -> Self {
        DeriveOptions::paper()
    }
}

/// The derived customization: everything the synthesis stage needs.
#[derive(Debug, Clone)]
pub struct DerivedConfig {
    /// The Table II parameters.
    pub resources: ResourceConfig,
    /// The CQF plan (slot, phases, bounds).
    pub cqf: CqfPlan,
    /// The injection plan.
    pub itp: ItpResult,
    /// Per-switch enabled-port analysis.
    pub enabled_ports: EnabledPorts,
    /// The synthesized 802.1Qbv schedule, when
    /// [`GateMode::Tas`] was requested.
    pub tas: Option<TasSchedule>,
    /// Whether the switch table uses aggregated per-destination entries.
    pub aggregate_switch_tbl: bool,
}

impl DerivedConfig {
    /// Everything this derivation decides short of a TAS schedule — the
    /// slot, resources, aggregation mode and injection offsets — as a
    /// delta over any template: sweeps that derive several points over
    /// one topology and flow set reconfigure one resident template, built
    /// with [`DerivedConfig::schedule`], with it.
    /// [`DerivedConfig::template`] applies the same knobs.
    #[must_use]
    pub fn delta(&self) -> ConfigDelta {
        ConfigDelta {
            resources: Some(self.resources.clone()),
            per_switch_resources: None,
            slot: Some(self.cqf.slot),
            aggregate_switch_tbl: Some(self.aggregate_switch_tbl),
            offsets: Some(self.itp.offsets.clone()),
        }
    }

    /// The synthesized TAS gate schedule, empty under [`GateMode::Cqf`]
    /// (every port keeps its role-derived CQF program).
    #[must_use]
    pub fn schedule(&self) -> GclSchedule {
        self.tas
            .as_ref()
            .map_or_else(GclSchedule::new, |tas| GclSchedule::from_map(tas.gcls()))
    }

    /// The synthesis step of Fig. 1: injects this derivation into the
    /// simulated templates. `requirements` are the scenario this was
    /// derived from: the template installs the routes they hold, so
    /// nothing routes twice. `base` supplies what a derivation does not
    /// decide (duration, sync, preemption, faults); the derived slot,
    /// resources, aggregation mode, injection offsets and, under
    /// [`GateMode::Tas`], the gate schedule replace the rest. Every
    /// network built from a derivation comes from here or, on a sweep's
    /// shared template, from [`DerivedConfig::schedule`] and
    /// [`DerivedConfig::delta`], so no caller can drop part of it.
    ///
    /// # Errors
    ///
    /// As [`NetworkTemplate::with_routes`]; resource shortfalls surface
    /// at [`NetworkTemplate::instantiate`].
    pub fn template(
        &self,
        requirements: &AppRequirements,
        base: SimConfig,
    ) -> TsnResult<NetworkTemplate> {
        let mut config = base;
        self.delta().apply(&mut config);
        requirements.template(&self.itp.offsets, config, self.schedule())
    }
}

/// Runs the full derivation pipeline for a scenario.
///
/// # Errors
///
/// Propagates CQF and ITP infeasibility and parameter validation
/// errors.
///
/// # Example
///
/// ```
/// use tsn_builder::derive::{derive_parameters, DeriveOptions};
/// use tsn_builder::requirements::AppRequirements;
/// use tsn_topology::presets;
/// use tsn_types::{FlowId, FlowSet, SimDuration, TsFlowSpec};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let mut flows = FlowSet::new();
/// for id in 0..64 {
///     flows.push(TsFlowSpec::new(
///         FlowId::new(id), hosts[0], hosts[1],
///         SimDuration::from_millis(10), SimDuration::from_millis(8), 64,
///     )?.into());
/// }
/// let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
/// let derived = derive_parameters(&req, &DeriveOptions::paper())?;
/// assert_eq!(derived.resources.port_num(), 1); // ring: one TSN port
/// assert_eq!(derived.resources.queue_depth(), 12);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn derive_parameters(
    requirements: &AppRequirements,
    options: &DeriveOptions,
) -> TsnResult<DerivedConfig> {
    // Guideline (2): slot + gate size from the CQF plan.
    let cqf = match options.slot {
        Some(slot) => CqfPlan::with_slot(requirements, slot, options.link_rate)?,
        None => CqfPlan::choose_slot(requirements, options.link_rate)?,
    };

    // Guideline (4): injection planning fixes the queue depth.
    let itp = itp::plan(requirements, &cqf, options.strategy)?;

    derive_with_plans(requirements, options, cqf, itp)
}

/// As [`derive_parameters`], but with the CQF and injection plans
/// supplied by the caller — the incremental re-derive entry point for
/// searchers that reuse memoized plans across many candidate
/// configurations of the same scenario (see `tsn-dse`).
///
/// # Errors
///
/// [`TsnError::InvalidParameter`] naming `queue_depth` for an override
/// of 0 or one whose buffer count overflows; propagates TAS synthesis
/// and parameter validation errors.
pub fn derive_with_plans(
    requirements: &AppRequirements,
    options: &DeriveOptions,
    cqf: CqfPlan,
    itp: ItpResult,
) -> TsnResult<DerivedConfig> {
    let queue_depth = options
        .queue_depth_override
        .unwrap_or_else(|| itp.recommended_queue_depth().max(1));
    // Every queue holds a frame, and the buffer count fits in a u32.
    let buffers = Some(queue_depth)
        .filter(|&depth| depth > 0)
        .and_then(|depth| depth.checked_mul(options.queue_num))
        .ok_or_else(|| {
            TsnError::invalid_parameter(
                "queue_depth",
                format!(
                    "{queue_depth} frames in each of {} queues is no valid buffer count",
                    options.queue_num
                ),
            )
        })?;

    // Guideline (5): enabled ports from the TS routes.
    let enabled_ports = EnabledPorts::from_routes(
        requirements.topology(),
        requirements.ts_routes().map(|(_, route)| route),
    );
    let port_num = (enabled_ports.max_per_switch() as u32).max(1);

    // Guideline (1): shared tables sized by the flow count — or, with
    // aggregation, the switch table by the destination count.
    let flow_count = requirements.flows().len() as u32;
    let table_size = options
        .table_size_override
        .unwrap_or_else(|| flow_count.max(16).next_power_of_two());
    let switch_size = if options.aggregate_switch_tbl {
        let dsts: std::collections::BTreeSet<_> =
            requirements.flows().iter().map(|f| f.dst()).collect();
        (dsts.len() as u32).max(16).next_power_of_two()
    } else {
        table_size
    };

    // Guideline (2), TAS variant: synthesize the windows; the gate table
    // must hold one entry per slot of the hyperperiod.
    let tas = match options.gate_mode {
        GateMode::Cqf => None,
        GateMode::Tas => Some(TasSchedule::synthesize(
            requirements,
            &cqf,
            &itp,
            &tsn_switch::QueueLayout::standard8(),
        )?),
    };
    let gate_size = tas.as_ref().map_or(cqf.gate_size, TasSchedule::gate_size);

    // Guideline (3): CBS entries = RC queues in use (the paper's layout
    // has three RC queues per port).
    let rc_queue_count = options.cbs_override.unwrap_or_else(|| {
        if requirements.flows().rc_count() == 0 {
            0
        } else {
            requirements.flows().rc_count().clamp(1, 3) as u32
        }
    });

    let mut resources = ResourceConfig::new();
    resources
        .set_switch_tbl(switch_size, 0)?
        .set_class_tbl(table_size)?
        .set_meter_tbl(table_size)?
        .set_gate_tbl(gate_size, options.queue_num, port_num)?
        .set_cbs_tbl(rc_queue_count, rc_queue_count, port_num)?
        .set_queues(queue_depth, options.queue_num, port_num)?
        .set_buffers(buffers, port_num)?;

    Ok(DerivedConfig {
        resources,
        cqf,
        itp,
        enabled_ports,
        tas,
        aggregate_switch_tbl: options.aggregate_switch_tbl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{FlowId, FlowSet, RcFlowSpec, TsFlowSpec};

    fn requirements(
        topology: tsn_topology::Topology,
        ts_flows: u32,
        rc_flows: u32,
    ) -> AppRequirements {
        let hosts = topology.hosts();
        let mut flows = FlowSet::new();
        for id in 0..ts_flows {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[(id as usize) % hosts.len()],
                    hosts[(id as usize + 1) % hosts.len()],
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(8),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        for k in 0..rc_flows {
            flows.push(
                RcFlowSpec::new(
                    FlowId::new(ts_flows + k),
                    hosts[0],
                    hosts[1 % hosts.len()],
                    DataRate::mbps(50),
                    1024,
                )
                .expect("valid flow")
                .into(),
            );
        }
        AppRequirements::new(topology, flows, SimDuration::from_nanos(50)).expect("valid scenario")
    }

    #[test]
    fn paper_options_reproduce_table_iii_parameters() {
        for (topology, expected_ports) in [
            (presets::star(3, 3).expect("builds"), 3u32),
            (presets::linear(6, 2).expect("builds"), 2),
            (presets::ring(6, 3).expect("builds"), 1),
        ] {
            let req = requirements(topology, 64, 0);
            let derived = derive_parameters(&req, &DeriveOptions::paper()).expect("derives");
            let r = &derived.resources;
            assert_eq!(r.port_num(), expected_ports);
            assert_eq!(r.unicast_size(), 1024);
            assert_eq!(r.class_size(), 1024);
            assert_eq!(r.meter_size(), 1024);
            assert_eq!(r.gate_size(), 2);
            assert_eq!(r.queue_depth(), 12);
            assert_eq!(r.queue_num(), 8);
            assert_eq!(r.buffer_num(), 96, "depth 12 × 8 queues");
        }
    }

    /// With 70 talkers the requirements' router runs one BFS per
    /// talker, as a from-scratch build's does, so a network built from
    /// the requirements' routes reports exactly what a from-scratch
    /// build does, route-cache counters included.
    #[test]
    fn templates_report_like_scratch_builds_with_one_tree_per_talker() {
        use tsn_sim::network::{Network, SyncSetup};
        let req = requirements(presets::multi_ring(10, 8, 7).expect("builds"), 70, 0);
        let derived = derive_parameters(&req, &DeriveOptions::automatic()).expect("derives");
        let base = SimConfig {
            duration: SimDuration::from_millis(10),
            sync: SyncSetup::Perfect,
            ..SimConfig::paper_defaults()
        };
        let templated = derived
            .template(&req, base.clone())
            .and_then(|template| template.instantiate())
            .expect("builds")
            .run();
        let mut config = base;
        derived.delta().apply(&mut config);
        let scratch = Network::build(
            req.topology().clone(),
            req.flows().clone(),
            &derived.itp.offsets,
            config,
        )
        .expect("builds")
        .run();
        let talkers: std::collections::BTreeSet<_> = req.flows().iter().map(|f| f.src()).collect();
        let counters = templated.events.route_cache;
        assert_eq!(talkers.len(), 70);
        assert_eq!(counters.misses, 70, "one miss per talker");
        assert_eq!(counters.hits, req.flows().len() as u64 - 70);
        assert_eq!(format!("{templated:?}"), format!("{scratch:?}"));
        assert_eq!(templated.ts_lost(), 0);
    }

    #[test]
    fn automatic_tables_scale_with_flow_count() {
        let req = requirements(presets::ring(6, 3).expect("builds"), 100, 0);
        let derived = derive_parameters(&req, &DeriveOptions::automatic()).expect("derives");
        assert_eq!(derived.resources.class_size(), 128, "next pow2 of 100");
        // Depth follows ITP, not the override.
        assert_eq!(
            derived.resources.queue_depth(),
            derived.itp.recommended_queue_depth()
        );
        assert_eq!(
            derived.resources.buffer_num(),
            derived.resources.queue_depth() * 8
        );
    }

    #[test]
    fn cbs_entries_follow_rc_usage() {
        let mut options = DeriveOptions::automatic();
        options.slot = Some(crate::cqf::PAPER_SLOT);

        let no_rc = requirements(presets::ring(6, 3).expect("builds"), 8, 0);
        let derived = derive_parameters(&no_rc, &options).expect("derives");
        assert_eq!(derived.resources.cbs_size(), 0, "no RC flows, no shapers");

        let with_rc = requirements(presets::ring(6, 3).expect("builds"), 8, 2);
        let derived = derive_parameters(&with_rc, &options).expect("derives");
        assert_eq!(derived.resources.cbs_size(), 2);

        let many_rc = requirements(presets::ring(6, 3).expect("builds"), 8, 9);
        let derived = derive_parameters(&many_rc, &options).expect("derives");
        assert_eq!(derived.resources.cbs_size(), 3, "capped at the 3 RC queues");

        let paper = derive_parameters(&no_rc, &DeriveOptions::paper()).expect("derives");
        assert_eq!(
            paper.resources.cbs_size(),
            3,
            "paper provisions all RC queues"
        );
    }

    #[test]
    fn derive_with_plans_matches_the_full_pipeline() {
        let req = requirements(presets::ring(6, 3).expect("builds"), 24, 0);
        let options = DeriveOptions::automatic();
        let full = derive_parameters(&req, &options).expect("derives");
        let incremental = derive_with_plans(&req, &options, full.cqf.clone(), full.itp.clone())
            .expect("re-derives");
        assert_eq!(full.resources, incremental.resources);
        assert_eq!(full.cqf, incremental.cqf);
        assert_eq!(full.itp, incremental.itp);
    }

    #[test]
    fn queue_depth_overrides_of_zero_or_overflowing_buffers_are_rejected() {
        let req = requirements(presets::ring(6, 3).expect("builds"), 4, 0);
        for depth in [0, u32::MAX] {
            let mut options = DeriveOptions::paper();
            options.queue_depth_override = Some(depth);
            match derive_parameters(&req, &options) {
                Err(TsnError::InvalidParameter { name, .. }) => assert_eq!(name, "queue_depth"),
                other => panic!("depth {depth}: expected InvalidParameter, got {other:?}"),
            }
        }
        let mut options = DeriveOptions::paper();
        options.queue_depth_override = Some(1);
        let derived = derive_parameters(&req, &options).expect("depth 1 derives");
        assert_eq!(derived.resources.buffer_num(), 8);
    }

    #[test]
    fn infeasible_slot_propagates() {
        let req = requirements(presets::ring(6, 3).expect("builds"), 4, 0);
        let mut options = DeriveOptions::paper();
        options.slot = Some(SimDuration::from_millis(100));
        assert!(derive_parameters(&req, &options).is_err());
    }

    #[test]
    fn derived_resources_beat_the_commercial_baseline() {
        use tsn_resource::{baseline, AllocationPolicy, UsageReport};
        let req = requirements(presets::ring(6, 3).expect("builds"), 64, 3);
        let derived = derive_parameters(&req, &DeriveOptions::paper()).expect("derives");
        let custom = UsageReport::of(&derived.resources, AllocationPolicy::PaperAccounting);
        let cots = UsageReport::of(&baseline::bcm53154(), AllocationPolicy::PaperAccounting);
        assert!(
            custom.reduction_vs(&cots) > 50.0,
            "ring customization should save well over half the BRAM"
        );
    }
}
