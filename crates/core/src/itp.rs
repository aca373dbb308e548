//! Injection Time Planning — the queue/buffer optimizer of reference
//! \[24\] ("Injection Time Planning: Making CQF Practical in Time-Sensitive
//! Networking"), in its greedy least-loaded form.
//!
//! Under CQF, all TS frames that arrive at a port within the same slot
//! occupy the same queue simultaneously, so the *peak per-slot occupancy*
//! is exactly the `queue_depth` the hardware must provision. ITP chooses
//! each flow's injection offset (which slot of its period it fires in) to
//! flatten that peak — this is what lets the paper shrink depth 16 → 12
//! and buffers 128 → 96 at equal QoS.

use crate::cqf::CqfPlan;
use crate::requirements::AppRequirements;
use std::collections::HashMap;
use tsn_types::{FlowMap, NodeId, PortId, SimDuration, TsFlowSpec, TsnError, TsnResult};

/// Offset-selection strategy (the ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The ITP greedy: each flow takes the offset that minimizes the
    /// worst occupancy along its own path.
    GreedyLeastLoaded,
    /// No planning: every flow injects at phase 0 (the worst case a
    /// naive deployment produces).
    AllZero,
    /// Round-robin phase spreading without load feedback.
    UniformSpread,
}

/// The planning result.
#[derive(Debug, Clone, PartialEq)]
pub struct ItpResult {
    /// Chosen injection offset per TS flow (dense `FlowId`-indexed).
    pub offsets: FlowMap<SimDuration>,
    /// Peak simultaneous TS frames in any (port, slot phase) cell — the
    /// minimum safe `queue_depth`.
    pub max_occupancy: u32,
    /// Number of distinct (port, phase) cells carrying load.
    pub loaded_cells: usize,
    /// The strategy that produced this plan.
    pub strategy: Strategy,
}

impl ItpResult {
    /// The queue depth to provision: the observed peak plus one slot of
    /// slack (guards against sub-slot arrival skew at slot boundaries).
    #[must_use]
    pub fn recommended_queue_depth(&self) -> u32 {
        self.max_occupancy + 1
    }
}

/// The longest hyperperiod, in slots, the planner accepts. Each loaded
/// egress cell holds one `u32` occupancy counter per hyperperiod slot,
/// so this caps an occupancy row at 16 MiB.
const MAX_HYPERPERIOD_SLOTS: u64 = 1 << 22;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The number of `slot_ns` slots a TS flow's period advances: talkers
/// re-align each release to the slot grid (see `Generator::aligned_to`),
/// so this is `ceil(period/slot)`, at least 1.
pub(crate) fn period_slots(flow: &TsFlowSpec, slot_ns: u64) -> u64 {
    flow.period().as_nanos().div_ceil(slot_ns).max(1)
}

/// The LCM of every TS flow's [`period_slots`] — the cycle after which
/// slot occupancy repeats — or `None` once it exceeds `cap`.
pub(crate) fn hyperperiod_slots(
    requirements: &AppRequirements,
    slot_ns: u64,
    cap: u64,
) -> Option<u64> {
    let mut hyper: u64 = 1;
    for flow in requirements.flows().ts_flows() {
        let per = period_slots(flow, slot_ns);
        hyper = (hyper / gcd(hyper, per)).saturating_mul(per);
        if hyper > cap {
            return None;
        }
    }
    Some(hyper)
}

/// Plans injection offsets for every TS flow of `requirements` under the
/// CQF `plan`.
///
/// Occupancy is kept as one dense row of `hyper` per-slot counters per
/// loaded `(switch, egress port)` cell, indexed by slot phase; the
/// hyperperiod is at most 2^22 slots, so a row is at most 16 MiB.
///
/// # Errors
///
/// [`TsnError::ScheduleInfeasible`] if the LCM of the flows' periods,
/// counted in slots, exceeds 2^22: offsets planned modulo a shorter
/// cycle would miss collisions beyond it.
///
/// # Example
///
/// ```
/// use tsn_builder::{cqf::CqfPlan, itp, requirements::AppRequirements};
/// use tsn_topology::presets;
/// use tsn_types::{DataRate, FlowId, FlowSet, SimDuration, TsFlowSpec};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let mut flows = FlowSet::new();
/// for id in 0..32 {
///     flows.push(TsFlowSpec::new(
///         FlowId::new(id), hosts[0], hosts[1],
///         SimDuration::from_millis(10), SimDuration::from_millis(8), 64,
///     )?.into());
/// }
/// let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
/// let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(65), DataRate::gbps(1))?;
/// let greedy = itp::plan(&req, &plan, itp::Strategy::GreedyLeastLoaded)?;
/// let naive = itp::plan(&req, &plan, itp::Strategy::AllZero)?;
/// assert!(greedy.max_occupancy < naive.max_occupancy);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn plan(
    requirements: &AppRequirements,
    plan: &CqfPlan,
    strategy: Strategy,
) -> TsnResult<ItpResult> {
    let slot_ns = plan.slot.as_nanos();
    // Planning over the exact occupancy cycle keeps the plan exact, not
    // approximate.
    let hyper =
        hyperperiod_slots(requirements, slot_ns, MAX_HYPERPERIOD_SLOTS).ok_or_else(|| {
            TsnError::ScheduleInfeasible(format!(
                "ITP hyperperiod exceeds 2^22 slots at slot {}",
                plan.slot
            ))
        })?;

    // rows[cell][phase] = TS frames resident in that slot at that egress
    // cell; `cell_of` numbers the (node, port) cells as flows load them.
    let mut cell_of: HashMap<(NodeId, PortId), usize> = HashMap::new();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut offsets = FlowMap::new();
    let mut spread_cursor: u64 = 0;

    // Deterministic order: flows sorted by id.
    let mut ts: Vec<_> = requirements.ts_routes().collect();
    ts.sort_by_key(|(flow, _)| flow.id());

    for (flow, route) in ts {
        // The egress cells this flow occupies, relative to its injection
        // phase: hop k is reached k slots later.
        let cells: Vec<(usize, u64)> = route
            .switch_hops_iter()
            .enumerate()
            .filter_map(|(k, hop)| {
                let egress = hop.egress?;
                let cell = *cell_of.entry((hop.node, egress)).or_insert_with(|| {
                    rows.push(vec![0; hyper as usize]);
                    rows.len() - 1
                });
                Some((cell, k as u64))
            })
            .collect();
        let per_slots = period_slots(flow, slot_ns);
        let repeats = hyper / per_slots;
        // The phases offset `o` occupies: `(o + n·per + k) mod hyper`.
        let phases =
            |o: u64, k: u64| (0..repeats).map(move |n| ((o + n * per_slots + k) % hyper) as usize);

        let chosen = match strategy {
            Strategy::AllZero => 0,
            Strategy::UniformSpread => {
                let o = spread_cursor % per_slots;
                spread_cursor += 1;
                o
            }
            Strategy::GreedyLeastLoaded => {
                // The lowest-cost phase, ties to the lowest: a candidate
                // only wins by costing strictly less than the best so far,
                // so its scan stops as soon as it reaches that cost.
                let mut best = (u32::MAX, 0);
                for o in 0..per_slots {
                    let mut worst = 0;
                    'scan: for &(cell, k) in &cells {
                        let row = &rows[cell];
                        for phase in phases(o, k) {
                            worst = worst.max(row[phase]);
                            if worst >= best.0 {
                                break 'scan;
                            }
                        }
                    }
                    if worst < best.0 {
                        best = (worst, o);
                        if worst == 0 {
                            break;
                        }
                    }
                }
                best.1
            }
        };

        for &(cell, k) in &cells {
            for phase in phases(chosen, k) {
                rows[cell][phase] += 1;
            }
        }
        offsets.insert(flow.id(), SimDuration::from_nanos(chosen * slot_ns));
    }

    let max_occupancy = rows.iter().flatten().copied().max().unwrap_or(0);
    let loaded_cells = rows.iter().flatten().filter(|&&n| n > 0).count();
    Ok(ItpResult {
        offsets,
        max_occupancy,
        loaded_cells,
        strategy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{DataRate, FlowId, FlowSet, RcFlowSpec, SplitMix64, TsFlowSpec};

    /// The sparse `HashMap` planner the dense rows replaced, kept as the
    /// differential reference: it routes every flow itself and probes
    /// one hash entry per (node, port, phase).
    fn reference_plan(
        requirements: &AppRequirements,
        plan: &CqfPlan,
        strategy: Strategy,
    ) -> TsnResult<ItpResult> {
        let slot_ns = plan.slot.as_nanos();
        let mut hyper: u64 = 1;
        for flow in requirements.flows().ts_flows() {
            let per = flow.period().as_nanos().div_ceil(slot_ns).max(1);
            hyper = (hyper / gcd(hyper, per)).saturating_mul(per);
            hyper = hyper.min(1 << 22);
        }

        let mut occupancy: HashMap<(NodeId, PortId, u64), u32> = HashMap::new();
        let mut offsets = FlowMap::new();
        let mut spread_cursor: u64 = 0;
        let mut ts: Vec<_> = requirements.flows().ts_flows().collect();
        ts.sort_by_key(|f| f.id());

        for flow in ts {
            let route = requirements.topology().route(flow.src(), flow.dst())?;
            let cells: Vec<(NodeId, PortId, u64)> = route
                .switch_hops_iter()
                .enumerate()
                .filter_map(|(k, hop)| hop.egress.map(|e| (hop.node, e, k as u64)))
                .collect();
            let per_slots = flow.period().as_nanos().div_ceil(slot_ns).max(1);
            let candidate_phases = per_slots;
            let repeats = (hyper / per_slots).max(1);

            let phase_cost = |o: u64, occupancy: &HashMap<(NodeId, PortId, u64), u32>| -> u32 {
                let mut worst = 0;
                for n in 0..repeats {
                    let base_phase = o + n * per_slots;
                    for &(node, port, k) in &cells {
                        let phase = (base_phase + k) % hyper;
                        worst =
                            worst.max(occupancy.get(&(node, port, phase)).copied().unwrap_or(0));
                    }
                }
                worst
            };

            let chosen = match strategy {
                Strategy::AllZero => 0,
                Strategy::UniformSpread => {
                    let o = spread_cursor % candidate_phases;
                    spread_cursor += 1;
                    o
                }
                Strategy::GreedyLeastLoaded => (0..candidate_phases)
                    .min_by_key(|&o| (phase_cost(o, &occupancy), o))
                    .unwrap_or(0),
            };

            for n in 0..repeats {
                let base_phase = chosen + n * per_slots;
                for &(node, port, k) in &cells {
                    let phase = (base_phase + k) % hyper;
                    *occupancy.entry((node, port, phase)).or_insert(0) += 1;
                }
            }
            offsets.insert(flow.id(), SimDuration::from_nanos(chosen * slot_ns));
        }

        let max_occupancy = occupancy.values().copied().max().unwrap_or(0);
        Ok(ItpResult {
            offsets,
            max_occupancy,
            loaded_cells: occupancy.len(),
            strategy,
        })
    }

    /// A seeded scenario on a ring, linear or star preset: `flow_count`
    /// flows between random host pairs under shuffled ids, every 8th of
    /// them RC, the TS ones with periods mixed from a set whose
    /// hyperperiod stays well below the cap.
    fn random_scenario(seed: u64, flow_count: u32) -> (AppRequirements, CqfPlan) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let topo = match seed % 3 {
            0 => presets::ring(6, 3),
            1 => presets::linear(5, 3),
            _ => presets::star(4, 3),
        }
        .expect("builds");
        let (slot_us, periods_us): (u64, &[u64]) = match rng.gen_range(4) {
            0 => (65, &[1_000, 2_000, 4_000]),
            1 => (50, &[500, 1_000, 2_500, 10_000]),
            2 => (100, &[500, 1_000, 2_000, 2_500, 5_000, 10_000]),
            _ => (125, &[1_000, 2_000, 2_500, 5_000]),
        };
        let hosts = topo.hosts().to_vec();
        let mut ids: Vec<u32> = (0..flow_count).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let mut flows = FlowSet::new();
        for (i, id) in ids.into_iter().enumerate() {
            let src = rng.gen_range(hosts.len() as u64) as usize;
            let dst = (src + 1 + rng.gen_range(hosts.len() as u64 - 1) as usize) % hosts.len();
            let (src, dst, id) = (hosts[src], hosts[dst], FlowId::new(id));
            let flow = if i % 8 == 7 {
                RcFlowSpec::new(id, src, dst, DataRate::mbps(10), 256)
                    .expect("valid flow")
                    .into()
            } else {
                let period = periods_us[rng.gen_range(periods_us.len() as u64) as usize];
                TsFlowSpec::new(
                    id,
                    src,
                    dst,
                    SimDuration::from_micros(period),
                    SimDuration::from_millis(20),
                    64,
                )
                .expect("valid flow")
                .into()
            };
            flows.push(flow);
        }
        if flows.ts_count() == 0 {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(flow_count),
                    hosts[0],
                    hosts[1],
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(20),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(slot_us), DataRate::gbps(1))
            .expect("feasible");
        (req, plan)
    }

    #[test]
    fn dense_rows_match_the_hashmap_reference() {
        let flow_counts = [1, 2, 7, 33, 64, 100, 128, 200, 256, 333, 400, 512];
        for (seed, &flow_count) in (0u64..).zip(flow_counts.iter().chain(&flow_counts)) {
            let (req, cqf) = random_scenario(seed, flow_count);
            for strategy in [
                Strategy::GreedyLeastLoaded,
                Strategy::AllZero,
                Strategy::UniformSpread,
            ] {
                let dense = plan(&req, &cqf, strategy).expect("plans");
                let reference = reference_plan(&req, &cqf, strategy).expect("plans");
                assert_eq!(
                    dense, reference,
                    "seed {seed}, {flow_count} flows, {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn hyperperiod_beyond_the_cap_is_infeasible() {
        // Periods of 4099 us and 4111 us (both prime) at a 1 us slot
        // repeat only after ~1.7e7 slots, past the 2^22 cap: planning
        // modulo a clamped cycle would miss collisions, so it must fail.
        let topo = presets::ring(6, 3).expect("builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for (id, period_us) in [(0, 4_099), (1, 4_111)] {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[0],
                    hosts[1],
                    SimDuration::from_micros(period_us),
                    SimDuration::from_millis(4),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let slot = SimDuration::from_micros(1);
        let cqf = CqfPlan::with_slot(&req, slot, DataRate::gbps(1)).expect("feasible slot");
        for strategy in [
            Strategy::GreedyLeastLoaded,
            Strategy::AllZero,
            Strategy::UniformSpread,
        ] {
            assert!(matches!(
                plan(&req, &cqf, strategy),
                Err(TsnError::ScheduleInfeasible(_))
            ));
        }
        let mut options = crate::derive::DeriveOptions::automatic();
        options.slot = Some(slot);
        assert!(matches!(
            crate::derive::derive_parameters(&req, &options),
            Err(TsnError::ScheduleInfeasible(_))
        ));
    }

    fn scenario(flow_count: u32) -> (AppRequirements, CqfPlan) {
        let topo = presets::ring(6, 3).expect("builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..flow_count {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[(id as usize) % 2],
                    hosts[(id as usize) % 2 + 1],
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(8),
                    64,
                )
                .expect("valid flow")
                .into(),
            );
        }
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        let plan = CqfPlan::with_slot(&req, SimDuration::from_micros(65), DataRate::gbps(1))
            .expect("feasible");
        (req, plan)
    }

    #[test]
    fn greedy_flattens_the_peak() {
        let (req, cqf) = scenario(64);
        let naive = plan(&req, &cqf, Strategy::AllZero).expect("plans");
        let greedy = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        // All-zero stacks every flow into the same phase.
        assert!(naive.max_occupancy >= 32);
        assert!(
            greedy.max_occupancy <= 2,
            "64 flows over 153 phases should spread to ~1 per cell, got {}",
            greedy.max_occupancy
        );
        assert!(greedy.loaded_cells > naive.loaded_cells);
    }

    #[test]
    fn uniform_spread_sits_between() {
        let (req, cqf) = scenario(64);
        let naive = plan(&req, &cqf, Strategy::AllZero).expect("plans");
        let spread = plan(&req, &cqf, Strategy::UniformSpread).expect("plans");
        let greedy = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert!(spread.max_occupancy <= naive.max_occupancy);
        assert!(greedy.max_occupancy <= spread.max_occupancy);
    }

    #[test]
    fn offsets_are_within_the_period() {
        let (req, cqf) = scenario(32);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(result.offsets.len(), 32);
        for offset in result.offsets.values() {
            assert!(*offset < SimDuration::from_millis(10));
        }
    }

    #[test]
    fn recommended_depth_adds_slack() {
        let (req, cqf) = scenario(16);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(result.recommended_queue_depth(), result.max_occupancy + 1);
    }

    #[test]
    fn paper_scale_fits_depth_12() {
        // 1024 flows, 10 ms period, 65 us slot: the paper provisions
        // depth 12; greedy ITP must stay at or below that.
        let (req, cqf) = scenario(1024);
        let result = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert!(
            result.recommended_queue_depth() <= 12,
            "greedy ITP should meet the paper's depth budget, got {}",
            result.recommended_queue_depth()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (req, cqf) = scenario(64);
        let a = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        let b = plan(&req, &cqf, Strategy::GreedyLeastLoaded).expect("plans");
        assert_eq!(a, b);
    }
}
