//! 802.1Qbv Time-Aware Shaper schedule synthesis — the general gating
//! mode beyond CQF.
//!
//! The paper's guideline (2): *"The number of entries for each
//! \[gate\] table equals the number of time slots within a scheduling
//! cycle"* — that is the full-TAS case, of which CQF (gate_size = 2) is
//! the cyclic special case used in the evaluation. This module
//! implements the general case in the style of GCL-synthesis work
//! (ref \[20\]): given the ITP injection plan, it computes exactly which
//! slots each port's TS queues must open in, and closes them everywhere
//! else.
//!
//! Compared to CQF, a synthesized TAS schedule:
//!
//! * needs `gate_size = phases` entries per GCL instead of 2 (the
//!   resource trade-off the customization API exposes);
//! * **protects** the TS queues: a TS-marked frame arriving outside its
//!   scheduled slot meets a closed ingress gate and is dropped — the
//!   per-stream protection flavour of 802.1Qci.

use crate::cqf::CqfPlan;
use crate::itp::{hyperperiod_slots, period_slots, ItpResult};
use crate::requirements::AppRequirements;
use std::collections::HashMap;
use tsn_switch::gate_ctrl::{GateControlList, GateEntry};
use tsn_switch::layout::QueueLayout;
use tsn_types::{NodeId, PortId, QueueId, SimDuration, TsnError, TsnResult};

/// A synthesized per-port 802.1Qbv schedule.
#[derive(Debug, Clone)]
pub struct TasSchedule {
    slot: SimDuration,
    phases: u64,
    gcls: HashMap<(NodeId, PortId), (GateControlList, GateControlList)>,
}

impl TasSchedule {
    /// Synthesizes the schedule for a scenario: each TS flow occupies an
    /// ingress window at its (ITP-planned) arrival slot and an egress
    /// window one slot later, on every switch egress port along its
    /// route. The CQF queue pair alternates by slot parity, so the
    /// per-hop timing (and Eq. (1)) is identical to CQF — only the
    /// *unused* slots are now closed.
    ///
    /// # Errors
    ///
    /// [`TsnError::ScheduleInfeasible`] if the scenario has no TS flows
    /// to schedule or its hyperperiod exceeds 2^20 slots.
    pub fn synthesize(
        requirements: &AppRequirements,
        plan: &CqfPlan,
        itp: &ItpResult,
        layout: &QueueLayout,
    ) -> TsnResult<Self> {
        if requirements.flows().ts_count() == 0 {
            return Err(TsnError::ScheduleInfeasible(
                "a TAS schedule needs at least one TS flow".to_owned(),
            ));
        }
        let (qa, qb) = layout.cqf_pair();
        let pair = [qa, qb];
        let slot_ns = plan.slot.as_nanos();

        // Each flow's windows repeat with its slot-aligned period; the
        // GCL length is the LCM of those periods, rounded even so the
        // queue-pair parity survives the wrap.
        let mut phases = hyperperiod_slots(requirements, slot_ns, 1 << 20).ok_or_else(|| {
            TsnError::ScheduleInfeasible(format!(
                "TAS hyperperiod exceeds 2^20 slots at slot {}",
                plan.slot
            ))
        })?;
        if phases % 2 == 1 {
            phases *= 2;
        }

        // Base entries: non-TS queues always open, TS pair closed.
        let base_entry = {
            let mut e = GateEntry::all_closed();
            for q in 0..layout.queue_num() {
                let q = QueueId::new(q as u8);
                if q != qa && q != qb {
                    e = e.with_open(q);
                }
            }
            e
        };

        let mut in_entries: HashMap<(NodeId, PortId), Vec<GateEntry>> = HashMap::new();
        let mut out_entries: HashMap<(NodeId, PortId), Vec<GateEntry>> = HashMap::new();

        for (flow, route) in requirements.ts_routes() {
            let offset = itp
                .offsets
                .get(flow.id())
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let effective_period_slots = period_slots(flow, slot_ns);
            let repeats = (phases / effective_period_slots).max(1);
            for n in 0..repeats {
                let base_phase = offset.as_nanos() / slot_ns + n * effective_period_slots;
                for (k, hop) in route.switch_hops_iter().enumerate() {
                    let Some(egress) = hop.egress else { continue };
                    let arrival = (base_phase + k as u64) % phases;
                    let departure = (arrival + 1) % phases;
                    let queue = pair[(arrival % 2) as usize];
                    let key = (hop.node, egress);
                    let ins = in_entries
                        .entry(key)
                        .or_insert_with(|| vec![base_entry; phases as usize]);
                    ins[arrival as usize] = ins[arrival as usize].with_open(queue);
                    let outs = out_entries
                        .entry(key)
                        .or_insert_with(|| vec![base_entry; phases as usize]);
                    outs[departure as usize] = outs[departure as usize].with_open(queue);
                }
            }
        }

        let mut gcls = HashMap::new();
        for (key, ins) in in_entries {
            let outs = out_entries
                .remove(&key)
                .expect("in/out windows are created together");
            gcls.insert(
                key,
                (
                    GateControlList::new(ins, plan.slot)?,
                    GateControlList::new(outs, plan.slot)?,
                ),
            );
        }
        Ok(TasSchedule {
            slot: plan.slot,
            phases,
            gcls,
        })
    }

    /// Entries per gate control list (`gate_size` in the customization
    /// API).
    #[must_use]
    pub fn gate_size(&self) -> u32 {
        self.phases as u32
    }

    /// The slot length.
    #[must_use]
    pub fn slot(&self) -> SimDuration {
        self.slot
    }

    /// The per-port GCL programs, keyed by `(switch, egress port)`.
    #[must_use]
    pub fn gcls(&self) -> &HashMap<(NodeId, PortId), (GateControlList, GateControlList)> {
        &self.gcls
    }

    /// Number of ports carrying a synthesized program.
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.gcls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cqf::PAPER_SLOT, itp, DeriveOptions};
    use tsn_topology::presets;
    use tsn_types::{DataRate, FlowId, FlowSet, SimTime, TsFlowSpec};

    fn scenario(flows_n: u32) -> (AppRequirements, CqfPlan, ItpResult) {
        let topo = presets::ring(6, 3).expect("topology builds");
        let hosts = topo.hosts();
        let mut flows = FlowSet::new();
        for id in 0..flows_n {
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(id),
                    hosts[0],
                    hosts[1],
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
        let plan = CqfPlan::with_slot(&req, PAPER_SLOT, DataRate::gbps(1)).expect("feasible");
        let planned = itp::plan(&req, &plan, itp::Strategy::GreedyLeastLoaded).expect("plans");
        (req, plan, planned)
    }

    #[test]
    fn synthesizes_programs_for_every_ts_egress() {
        let (req, plan, planned) = scenario(16);
        let schedule = TasSchedule::synthesize(&req, &plan, &planned, &QueueLayout::standard8())
            .expect("synthesizes");
        // host0 -> host1 crosses sw0 (ring egress) and sw1 (host egress).
        assert_eq!(schedule.port_count(), 2);
        assert_eq!(schedule.gate_size(), 154, "ceil(10ms/65us) rounded even");
    }

    #[test]
    fn windows_open_exactly_one_slot_after_arrival() {
        let (req, plan, planned) = scenario(4);
        let layout = QueueLayout::standard8();
        let schedule =
            TasSchedule::synthesize(&req, &plan, &planned, &layout).expect("synthesizes");
        let (qa, qb) = layout.cqf_pair();
        for (in_gcl, out_gcl) in schedule.gcls().values() {
            for phase in 0..schedule.gate_size() as u64 {
                let t = SimTime::ZERO + PAPER_SLOT * phase;
                let next = SimTime::ZERO + PAPER_SLOT * ((phase + 1) % 154);
                for q in [qa, qb] {
                    if in_gcl.is_open(q, t) {
                        assert!(
                            out_gcl.is_open(q, next),
                            "an ingress window at phase {phase} needs an egress window next"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tas_gating_is_sparser_than_cqf() {
        let (req, plan, planned) = scenario(8);
        let layout = QueueLayout::standard8();
        let schedule =
            TasSchedule::synthesize(&req, &plan, &planned, &layout).expect("synthesizes");
        // The fraction of (port, slot, TS-queue) ingress windows open.
        let (qa, qb) = layout.cqf_pair();
        let (mut open, mut total) = (0u32, 0u32);
        for (in_gcl, _) in schedule.gcls.values() {
            for phase in 0..schedule.phases {
                let t = tsn_types::SimTime::ZERO + schedule.slot * phase;
                for q in [qa, qb] {
                    total += 1;
                    open += u32::from(in_gcl.is_open(q, t));
                }
            }
        }
        let fraction = f64::from(open) / f64::from(total);
        // CQF keeps one of the two pair gates open in every slot -> 0.5.
        assert!(
            fraction < 0.25,
            "8 flows over 154 phases should leave most windows closed, got {fraction}"
        );
        assert!(fraction > 0.0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let (req, plan, planned) = scenario(32);
        let layout = QueueLayout::standard8();
        let a = TasSchedule::synthesize(&req, &plan, &planned, &layout).expect("synthesizes");
        let b = TasSchedule::synthesize(&req, &plan, &planned, &layout).expect("synthesizes");
        assert_eq!(a.gcls().len(), b.gcls().len());
        for (key, (in_a, out_a)) in a.gcls() {
            let (in_b, out_b) = &b.gcls()[key];
            assert_eq!(in_a, in_b);
            assert_eq!(out_a, out_b);
        }
        let _ = DeriveOptions::paper();
    }
}
