//! The composed TSN switch (Fig. 3): Ingress Filter → Packet Switch →
//! Gate Ctrl → Egress Sched, with Time Sync feeding corrected time to the
//! gates.
//!
//! [`TsnSwitchCore`] is the *logic* of one switch; the `tsn-sim` crate
//! wraps it with link timing and events. The core is built from a
//! [`tsn_resource::ResourceConfig`], so every hardware capacity the
//! customization APIs set (table sizes, queue depth, buffer count) is
//! enforced on the data path.

use crate::egress_sched::{CreditBasedShaper, EgressScheduler};
use crate::gate_ctrl::{GateControlList, GateCtrl, GateDrop};
use crate::ingress_filter::{ClassEntry, ClassKey, FilterDrop, FilterVerdict, IngressFilter};
use crate::layout::QueueLayout;
use crate::packet_switch::PacketSwitch;
use crate::stats::{DropReason, SwitchStats};
use tsn_types::{
    DataRate, EthernetFrame, MacAddr, McId, MeterId, PortId, QueueId, SimDuration, SimTime,
    TrafficClass, TsnError, TsnResult, VlanId,
};

/// Whether a physical port runs the TSN machinery (CQF gate control) or is
/// a plain store-and-forward edge port (e.g. facing a host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Deterministic port: CQF in/out GCLs on the TS queue pair.
    Tsn,
    /// Edge port: all gates always open; strict priority still applies.
    Edge,
}

/// Construction parameters for one [`TsnSwitchCore`].
///
/// The spec *borrows* the resource configuration and any GCL overrides:
/// building a whole network of switches from one shared `ResourceConfig`
/// (and from a schedule synthesizer's GCL map) then copies nothing on
/// the build path — [`TsnSwitchCore::new`] clones a GCL exactly once,
/// for the port that actually installs it.
#[derive(Debug, Clone)]
pub struct SwitchSpec<'a> {
    /// Memory resource configuration (Table II parameters).
    pub resources: &'a tsn_resource::ResourceConfig,
    /// Per-port role. Length = number of cabled ports.
    pub ports: Vec<PortKind>,
    /// CQF slot length for the TSN ports.
    pub slot: SimDuration,
    /// Explicit per-port GCL pairs `(in, out)` overriding the default
    /// CQF configuration — the hook for synthesized 802.1Qbv schedules.
    /// Entries beyond `ports.len()` are rejected at build time.
    pub gcl_overrides: Vec<(PortId, &'a GateControlList, &'a GateControlList)>,
}

impl<'a> SwitchSpec<'a> {
    /// A spec with `ports` roles, the paper's default resources, and the
    /// given CQF slot.
    #[must_use]
    pub fn new(
        resources: &'a tsn_resource::ResourceConfig,
        ports: Vec<PortKind>,
        slot: SimDuration,
    ) -> Self {
        SwitchSpec {
            resources,
            ports,
            slot,
            gcl_overrides: Vec::new(),
        }
    }

    /// Installs an explicit In/Out GCL pair on one port (replacing the
    /// role-derived default).
    pub fn override_gcl(
        &mut self,
        port: PortId,
        in_gcl: &'a GateControlList,
        out_gcl: &'a GateControlList,
    ) -> &mut Self {
        self.gcl_overrides.push((port, in_gcl, out_gcl));
        self
    }

    fn tsn_port_count(&self) -> usize {
        self.ports.iter().filter(|&&k| k == PortKind::Tsn).count()
    }
}

/// Outcome of presenting one frame to the switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Enqueued on `queue` of egress `port`.
    Enqueued {
        /// Egress port.
        port: PortId,
        /// Queue the gate control selected.
        queue: QueueId,
    },
    /// Dropped on (or before) egress `port`.
    Dropped {
        /// The egress port involved, if the drop happened after lookup.
        port: Option<PortId>,
        /// Why.
        reason: DropReason,
    },
}

impl Disposition {
    /// `true` if the frame was enqueued.
    #[must_use]
    pub fn is_enqueued(&self) -> bool {
        matches!(self, Disposition::Enqueued { .. })
    }
}

#[derive(Debug, Clone)]
struct EgressPort {
    gates: GateCtrl,
    sched: EgressScheduler,
    kind: PortKind,
}

/// One switch's complete data plane.
///
/// # Example
///
/// ```
/// use tsn_switch::pipeline::{TsnSwitchCore, SwitchSpec, PortKind};
/// use tsn_resource::ResourceConfig;
/// use tsn_types::{SimDuration, SimTime, MacAddr, VlanId, PortId, EthernetFrame, TrafficClass};
///
/// let resources = ResourceConfig::new();
/// let spec = SwitchSpec::new(
///     &resources,
///     vec![PortKind::Tsn, PortKind::Edge],
///     SimDuration::from_micros(65),
/// );
/// let mut sw = TsnSwitchCore::new(&spec)?;
/// let dst = MacAddr::station(9);
/// sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))?;
/// let frame = EthernetFrame::builder()
///     .src(MacAddr::station(1)).dst(dst)
///     .class(TrafficClass::TimeSensitive).size_bytes(64)
///     .build()?;
/// let report = sw.receive(frame, SimTime::ZERO);
/// assert!(report[0].is_enqueued());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TsnSwitchCore {
    packet_switch: PacketSwitch,
    filter: IngressFilter,
    ports: Vec<EgressPort>,
    buffer_capacity: usize,
    stats: SwitchStats,
}

impl TsnSwitchCore {
    /// Builds the data plane from a spec.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] if the spec has no ports, or more
    ///   TSN ports than the resource configuration provisions
    ///   (`port_num`), or a queue layout cannot be built for
    ///   `queue_num`.
    pub fn new(spec: &SwitchSpec<'_>) -> TsnResult<Self> {
        if spec.ports.is_empty() {
            return Err(TsnError::invalid_parameter(
                "ports",
                "a switch needs at least one port",
            ));
        }
        let res = spec.resources;
        if spec.tsn_port_count() > res.port_num() as usize {
            return Err(TsnError::invalid_parameter(
                "ports",
                format!(
                    "{} TSN ports requested but resources provision port_num={}",
                    spec.tsn_port_count(),
                    res.port_num()
                ),
            ));
        }
        let layout = layout_for(res.queue_num())?;
        let filter = IngressFilter::new(
            res.class_size() as usize,
            res.meter_size() as usize,
            layout.clone(),
        );
        let packet_switch =
            PacketSwitch::new(res.unicast_size() as usize, res.multicast_size() as usize);
        for (port, _, _) in &spec.gcl_overrides {
            if port.as_usize() >= spec.ports.len() {
                return Err(TsnError::UnknownPort {
                    node: tsn_types::NodeId::new(0),
                    port: *port,
                });
            }
        }
        let ports = spec
            .ports
            .iter()
            .enumerate()
            .map(|(index, &kind)| {
                let port_id = PortId::new(index as u16);
                let overridden = spec
                    .gcl_overrides
                    .iter()
                    .find(|(p, _, _)| *p == port_id)
                    .map(|(_, in_gcl, out_gcl)| (*in_gcl, *out_gcl));
                let gates = match (overridden, kind) {
                    (Some((in_gcl, out_gcl)), _) => {
                        if in_gcl.len() > res.gate_size() as usize
                            || out_gcl.len() > res.gate_size() as usize
                        {
                            return Err(TsnError::capacity("gate table", res.gate_size() as usize));
                        }
                        // The single clone: the port takes ownership of
                        // its installed tables.
                        GateCtrl::new(
                            layout.clone(),
                            res.queue_depth() as usize,
                            in_gcl.clone(),
                            out_gcl.clone(),
                        )?
                    }
                    (None, PortKind::Tsn) => {
                        GateCtrl::cqf(layout.clone(), res.queue_depth() as usize, spec.slot)?
                    }
                    (None, PortKind::Edge) => GateCtrl::new(
                        layout.clone(),
                        res.queue_depth() as usize,
                        GateControlList::always_open(spec.slot),
                        GateControlList::always_open(spec.slot),
                    )?,
                };
                Ok(EgressPort {
                    gates,
                    sched: EgressScheduler::new(
                        layout.queue_num(),
                        res.cbs_map_size() as usize,
                        res.cbs_size() as usize,
                    ),
                    kind,
                })
            })
            .collect::<TsnResult<Vec<_>>>()?;
        Ok(TsnSwitchCore {
            packet_switch,
            filter,
            ports,
            buffer_capacity: res.buffer_num() as usize,
            stats: SwitchStats::new(),
        })
    }

    // --- control plane -----------------------------------------------------

    /// Sizes the unicast, classification and meter tables' storage for
    /// the installs about to come, each clipped to its table's capacity.
    /// Storage only: capacities and install outcomes are unchanged.
    pub fn reserve_tables(&mut self, unicast: usize, class: usize, meters: usize) {
        self.packet_switch.reserve_unicast(unicast);
        self.filter.reserve(class, meters);
    }

    /// Installs a unicast forwarding entry.
    ///
    /// # Errors
    ///
    /// Propagates table-capacity errors.
    pub fn add_unicast(&mut self, dst: MacAddr, vlan: VlanId, port: PortId) -> TsnResult<()> {
        self.check_port(port)?;
        self.packet_switch.add_unicast(dst, vlan, port)
    }

    /// Installs an aggregated (any-VLAN) unicast entry — one table entry
    /// per destination, the guideline-(1) optimization.
    ///
    /// # Errors
    ///
    /// Propagates table-capacity errors.
    pub fn add_unicast_any_vlan(&mut self, dst: MacAddr, port: PortId) -> TsnResult<()> {
        self.check_port(port)?;
        self.packet_switch.add_unicast_any_vlan(dst, port)
    }

    /// Installs a multicast group.
    ///
    /// # Errors
    ///
    /// Propagates table-capacity errors.
    pub fn add_multicast(&mut self, mc: McId, ports: Vec<PortId>) -> TsnResult<()> {
        for &p in &ports {
            self.check_port(p)?;
        }
        self.packet_switch.add_multicast(mc, ports)
    }

    /// Installs a classification entry.
    ///
    /// # Errors
    ///
    /// Propagates table-capacity errors.
    pub fn add_class_entry(&mut self, key: ClassKey, entry: ClassEntry) -> TsnResult<()> {
        self.filter.add_class_entry(key, entry)
    }

    /// Installs a meter.
    ///
    /// # Errors
    ///
    /// Propagates meter-table bounds errors.
    pub fn set_meter(
        &mut self,
        id: MeterId,
        meter: crate::ingress_filter::TokenBucketMeter,
    ) -> TsnResult<()> {
        self.filter.set_meter(id, meter)
    }

    /// Adopts this (fully programmed) data plane under a new resource
    /// configuration without replaying a single install — the
    /// incremental-reconfiguration fast path. Table capacities, the CBS
    /// table sizes, the per-queue depth and the buffer pool are
    /// re-provisioned in place; the programmed entries, meters, shapers
    /// and gate schedules are kept. Depth and buffer pool only bound
    /// occupancy, so adopting them is exact.
    ///
    /// Returns `false` when `res` is not adoptable and the caller must
    /// fall back to a from-scratch build instead:
    ///
    /// * the *structural* knob differs (`queue_num` changes the queue
    ///   layout, not just a capacity check), or
    /// * a *capacity* no longer fits what is already installed or held
    ///   (tables, meters, shapers, GCL lengths vs `gate_size`, TSN ports
    ///   vs `port_num`, queue occupancy vs `queue_depth`) — a
    ///   from-scratch build would have rejected an install, and only the
    ///   replay reproduces that error exactly.
    ///
    /// On `false` the core may be left partially re-provisioned; callers
    /// operate on a clone and discard it on that path.
    #[must_use]
    pub fn reprovision(&mut self, res: &tsn_resource::ResourceConfig) -> bool {
        let tsn_ports = self
            .ports
            .iter()
            .filter(|p| p.kind == PortKind::Tsn)
            .count();
        if tsn_ports > res.port_num() as usize {
            return false;
        }
        let structural_ok = layout_for(res.queue_num())
            .is_ok_and(|layout| self.ports.iter().all(|p| *p.gates.layout() == layout));
        if !structural_ok {
            return false;
        }
        let gate_fits = self.ports.iter().all(|p| {
            p.gates.in_gcl().len() <= res.gate_size() as usize
                && p.gates.out_gcl().len() <= res.gate_size() as usize
        });
        if !gate_fits {
            return false;
        }
        if !self
            .filter
            .reprovision(res.class_size() as usize, res.meter_size() as usize)
        {
            return false;
        }
        if !self
            .packet_switch
            .reprovision(res.unicast_size() as usize, res.multicast_size() as usize)
        {
            return false;
        }
        for port in &mut self.ports {
            if !port
                .sched
                .reprovision(res.cbs_map_size() as usize, res.cbs_size() as usize)
                || !port.gates.set_queue_depth(res.queue_depth() as usize)
            {
                return false;
            }
        }
        self.buffer_capacity = res.buffer_num() as usize;
        true
    }

    /// Installs a credit-based shaper on a port.
    ///
    /// # Errors
    ///
    /// Propagates CBS-table bounds errors and unknown ports.
    pub fn set_shaper(&mut self, port: PortId, slot: usize, idle_slope: DataRate) -> TsnResult<()> {
        self.check_port(port)?;
        self.ports[port.as_usize()]
            .sched
            .set_shaper(slot, CreditBasedShaper::new(idle_slope)?)
    }

    /// Maps a queue of a port onto a CBS slot.
    ///
    /// # Errors
    ///
    /// Propagates CBS map capacity errors and unknown ports.
    pub fn map_queue_to_shaper(
        &mut self,
        port: PortId,
        queue: QueueId,
        slot: usize,
    ) -> TsnResult<()> {
        self.check_port(port)?;
        self.ports[port.as_usize()].sched.map_queue(queue, slot)
    }

    fn check_port(&self, port: PortId) -> TsnResult<()> {
        if port.as_usize() < self.ports.len() {
            Ok(())
        } else {
            Err(TsnError::UnknownPort {
                node: tsn_types::NodeId::new(0),
                port,
            })
        }
    }

    // --- data plane ----------------------------------------------------------

    /// Presents a frame to the pipeline at (corrected) time `now`: filter,
    /// police, look up, and enqueue on every target port. Returns one
    /// [`Disposition`] per target (one for unicast, several for
    /// multicast, exactly one `Dropped` for pre-lookup drops).
    pub fn receive(&mut self, frame: EthernetFrame, now: SimTime) -> Vec<Disposition> {
        let mut dispositions = Vec::new();
        self.receive_into(frame, now, &mut dispositions);
        dispositions
    }

    /// As [`TsnSwitchCore::receive`], appending the dispositions to a
    /// caller-provided buffer — the allocation-free form the simulator's
    /// per-frame hot path uses.
    pub fn receive_into(&mut self, frame: EthernetFrame, now: SimTime, out: &mut Vec<Disposition>) {
        self.stats.received += 1;

        // Ingress Filter: classify and police.
        let queue = match self.filter.classify(&frame, now) {
            FilterVerdict::Accept { queue, .. } => queue,
            FilterVerdict::Drop(cause) => {
                let reason = match cause {
                    FilterDrop::MeterRed => DropReason::MeterRed,
                    FilterDrop::DanglingMeter => DropReason::DanglingMeter,
                    FilterDrop::FcsError => DropReason::FcsError,
                };
                self.stats.count_drop(reason);
                out.push(Disposition::Dropped { port: None, reason });
                return;
            }
        };

        // Packet Switch: find the outport(s), then Gate Ctrl: enqueue per
        // target port, respecting the buffer pool.
        match self.packet_switch.lookup(&frame) {
            crate::packet_switch::LookupOutcome::Unicast(port) => {
                out.push(self.enqueue_on(port, queue, frame, now));
            }
            crate::packet_switch::LookupOutcome::Multicast(ports) => {
                out.reserve(ports.len());
                for &port in ports.iter() {
                    out.push(self.enqueue_on(port, queue, frame, now));
                }
            }
            crate::packet_switch::LookupOutcome::Miss => {
                self.stats.count_drop(DropReason::LookupMiss);
                out.push(Disposition::Dropped {
                    port: None,
                    reason: DropReason::LookupMiss,
                });
            }
        }
    }

    fn enqueue_on(
        &mut self,
        port: PortId,
        queue: QueueId,
        frame: EthernetFrame,
        now: SimTime,
    ) -> Disposition {
        let Some(egress) = self.ports.get_mut(port.as_usize()) else {
            self.stats.count_drop(DropReason::UnknownQueue);
            return Disposition::Dropped {
                port: Some(port),
                reason: DropReason::UnknownQueue,
            };
        };
        if egress.gates.total_buffered() >= self.buffer_capacity {
            self.stats.count_drop(DropReason::BufferExhausted);
            return Disposition::Dropped {
                port: Some(port),
                reason: DropReason::BufferExhausted,
            };
        }
        match egress.gates.enqueue(queue, frame, now) {
            Ok(actual_queue) => {
                if egress.gates.queue_len(actual_queue) == 1 {
                    // Empty → backlogged transition: settle the queue's
                    // shaper over the idle period so credit accrual does
                    // not depend on polling cadence.
                    egress.sched.note_backlog_start(actual_queue, now);
                }
                self.stats.enqueued += 1;
                Disposition::Enqueued {
                    port,
                    queue: actual_queue,
                }
            }
            Err(gate_drop) => {
                let reason = match gate_drop {
                    GateDrop::GateClosed => DropReason::GateClosed,
                    GateDrop::QueueOverflow => DropReason::QueueOverflow,
                    GateDrop::UnknownQueue => DropReason::UnknownQueue,
                };
                self.stats.count_drop(reason);
                Disposition::Dropped {
                    port: Some(port),
                    reason,
                }
            }
        }
    }

    /// Picks and removes the next frame to transmit on `port` at `now`
    /// (Egress Sched: strict priority + CBS + egress gates). Returns the
    /// queue it came from and the frame, or `None` if nothing is eligible.
    pub fn dequeue(&mut self, port: PortId, now: SimTime) -> Option<(QueueId, EthernetFrame)> {
        self.dequeue_class(port, now, None)
    }

    /// As [`TsnSwitchCore::dequeue`], restricted to one MAC of the
    /// 802.3br split: `Some(true)` serves only the express
    /// (time-sensitive) queues, `Some(false)` only the preemptable
    /// (non-TS) queues, `None` all queues.
    pub fn dequeue_class(
        &mut self,
        port: PortId,
        now: SimTime,
        express: Option<bool>,
    ) -> Option<(QueueId, EthernetFrame)> {
        let egress = self.ports.get_mut(port.as_usize())?;
        let EgressPort { gates, sched, .. } = egress;
        let ts_mask = gates.ts_mask();
        let queue = sched.select_filtered(gates, now, |q| match express {
            None => true,
            Some(want_ts) => (ts_mask >> q.index()) & 1 == u64::from(want_ts),
        })?;
        let frame = gates.pop(queue)?;
        self.stats.transmitted += 1;
        Some((queue, frame))
    }

    /// Whether `port` holds a gate- and credit-eligible *express*
    /// (time-sensitive) frame at `now` — the trigger for preempting a
    /// preemptable transmission.
    #[must_use]
    pub fn express_ready(&self, port: PortId, now: SimTime) -> bool {
        let Some(egress) = self.ports.get(port.as_usize()) else {
            return false;
        };
        egress.gates.eligible_mask(now) & egress.gates.ts_mask() != 0
    }

    /// Records a completed transmission so shapers are charged.
    pub fn note_transmitted(
        &mut self,
        port: PortId,
        queue: QueueId,
        frame_bits: u64,
        tx_start: SimTime,
        tx_end: SimTime,
    ) {
        if let Some(egress) = self.ports.get_mut(port.as_usize()) {
            egress
                .sched
                .on_transmitted(queue, frame_bits, tx_start, tx_end);
        }
    }

    /// The next instant any gate state changes on `port` — the time the
    /// simulator should re-poll an idle port.
    #[must_use]
    pub fn next_gate_change(&self, port: PortId, now: SimTime) -> Option<SimTime> {
        self.ports
            .get(port.as_usize())
            .map(|p| p.gates.next_gate_change(now))
    }

    /// The earliest future instant at which a dequeue on `port` could
    /// newly succeed, computed gate-aware per occupied queue: a
    /// gate-closed queue wakes exactly when its gate opens (transition
    /// table lookup, not boundary polling); a gate-open queue that was
    /// still passed over must be credit-blocked and wakes at its shaper's
    /// recovery. `None` when the port holds no frames or no held frame
    /// can ever become eligible.
    #[must_use]
    pub fn next_dequeue_opportunity(&self, port: PortId, now: SimTime) -> Option<SimTime> {
        let p = self.ports.get(port.as_usize())?;
        let occupied = p.gates.occupied_mask();
        if occupied == 0 {
            return None;
        }
        let out = p.gates.out_gcl();
        let open_now = out.entry_at(now).bits();
        let mut earliest: Option<SimTime> = None;
        let mut merge = |t: SimTime| {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        };
        let mut mask = occupied;
        while mask != 0 {
            let q = mask.trailing_zeros();
            mask &= mask - 1;
            let queue = QueueId::new(q as u8);
            if (open_now >> q) & 1 == 1 {
                // Open but skipped by the dequeue that prompted this
                // call: a shaper is blocking. Fall back to the next slot
                // boundary if no recovery instant exists, so a frame can
                // never be stranded by an unmodeled blocker.
                match p.sched.queue_credit_recovery(queue, now) {
                    Some(t) => merge(t),
                    None => merge(out.next_change(now)),
                }
            } else if let Some(t) = out.next_open(queue, now) {
                merge(t);
            }
        }
        earliest
    }

    /// The next instant worth re-checking an in-flight *preemptable*
    /// segment on `port` for an express frame that became eligible
    /// mid-segment: the next gate change, or `None` when the port buffers
    /// nothing or its egress gates never change (always-open list —
    /// arrivals trigger their own kicks).
    #[must_use]
    pub fn next_preemption_check(&self, port: PortId, now: SimTime) -> Option<SimTime> {
        let p = self.ports.get(port.as_usize())?;
        if p.gates.total_buffered() == 0 || p.gates.out_gcl().is_uniform() {
            return None;
        }
        Some(p.gates.next_gate_change(now))
    }

    /// Number of cabled ports.
    #[must_use]
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Data-plane statistics.
    #[must_use]
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Gate-control state of one port (for tests and reports).
    #[must_use]
    pub fn gates(&self, port: PortId) -> Option<&GateCtrl> {
        self.ports.get(port.as_usize()).map(|p| &p.gates)
    }

    /// The ingress filter (for reports).
    #[must_use]
    pub fn filter(&self) -> &IngressFilter {
        &self.filter
    }

    /// The packet switch (for reports).
    #[must_use]
    pub fn packet_switch(&self) -> &PacketSwitch {
        &self.packet_switch
    }

    /// Highest per-queue occupancy seen on any port — the measurement that
    /// justifies shrinking `queue_depth` (Table I's insight).
    #[must_use]
    pub fn max_queue_high_water(&self) -> usize {
        self.ports
            .iter()
            .flat_map(|p| {
                (0..p.gates.layout().queue_num()).map(|q| p.gates.high_water(QueueId::new(q as u8)))
            })
            .max()
            .unwrap_or(0)
    }

    /// Highest buffer-pool occupancy seen on any port — the measurement
    /// that justifies shrinking `buffer_num`.
    #[must_use]
    pub fn max_pool_high_water(&self) -> usize {
        self.ports
            .iter()
            .map(|p| p.gates.buffered_high_water())
            .max()
            .unwrap_or(0)
    }
}

/// Builds the queue layout for a port with `queue_num` queues: the paper's
/// standard split for 8, otherwise a proportional split with the top two
/// queues time-sensitive.
fn layout_for(queue_num: u32) -> TsnResult<QueueLayout> {
    if queue_num == 8 {
        return Ok(QueueLayout::standard8());
    }
    if queue_num < 2 {
        return Err(TsnError::invalid_parameter(
            "queue_num",
            "at least two queues are needed for the CQF pair",
        ));
    }
    let n = queue_num as usize;
    let mut classes = vec![TrafficClass::BestEffort; n];
    classes[n - 1] = TrafficClass::TimeSensitive;
    classes[n - 2] = TrafficClass::TimeSensitive;
    // Up to three RC queues below the TS pair, paper-style.
    let rc = (n.saturating_sub(2)).min(3);
    for slot in classes.iter_mut().skip(n.saturating_sub(2 + rc)).take(rc) {
        *slot = TrafficClass::RateConstrained;
    }
    QueueLayout::new(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_types::FlowId;

    const SLOT: SimDuration = SimDuration::from_micros(65);

    fn default_core() -> TsnSwitchCore {
        let resources = tsn_resource::ResourceConfig::new();
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn, PortKind::Edge], SLOT);
        TsnSwitchCore::new(&spec).expect("valid spec")
    }

    fn ts_frame(dst: MacAddr, seq: u64) -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(dst)
            .class(TrafficClass::TimeSensitive)
            .size_bytes(64)
            .flow(FlowId::new(0))
            .sequence(seq)
            .build()
            .expect("valid frame")
    }

    #[test]
    fn end_to_end_receive_then_dequeue() {
        let mut sw = default_core();
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        let report = sw.receive(ts_frame(dst, 0), SimTime::ZERO);
        assert_eq!(report.len(), 1);
        assert!(report[0].is_enqueued());
        // CQF: the frame is only dequeuable in the next slot.
        assert!(sw.dequeue(PortId::new(0), SimTime::ZERO).is_none());
        let (queue, frame) = sw
            .dequeue(PortId::new(0), SimTime::ZERO + SLOT)
            .expect("eligible next slot");
        assert_eq!(frame.sequence(), 0);
        assert!(sw
            .gates(PortId::new(0))
            .expect("port exists")
            .layout()
            .ts_queues()
            .contains(&queue));
        assert_eq!(sw.stats().transmitted, 1);
    }

    #[test]
    fn lookup_miss_is_dropped_not_flooded() {
        let mut sw = default_core();
        let report = sw.receive(ts_frame(MacAddr::station(66), 0), SimTime::ZERO);
        assert_eq!(
            report,
            vec![Disposition::Dropped {
                port: None,
                reason: DropReason::LookupMiss
            }]
        );
        assert_eq!(sw.stats().drops(DropReason::LookupMiss), 1);
    }

    #[test]
    fn multicast_replicates_to_all_member_ports() {
        let mut resources = tsn_resource::ResourceConfig::new();
        resources.set_switch_tbl(1024, 16).expect("valid");
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn, PortKind::Edge], SLOT);
        let mut sw = TsnSwitchCore::new(&spec).expect("valid spec");
        let group = MacAddr::new([0x01, 0, 0x5e, 0, 0, 9]);
        sw.add_multicast(McId::new(1), vec![PortId::new(0), PortId::new(1)])
            .expect("fits");
        let frame = EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(group)
            .mc_id(McId::new(1))
            .class(TrafficClass::TimeSensitive)
            .size_bytes(64)
            .build()
            .expect("valid frame");
        let report = sw.receive(frame, SimTime::ZERO);
        assert_eq!(report.len(), 2);
        assert!(report.iter().all(Disposition::is_enqueued));
        assert_eq!(sw.stats().enqueued, 2);
    }

    #[test]
    fn buffer_pool_exhaustion_drops() {
        let mut resources = tsn_resource::ResourceConfig::new();
        resources
            .set_buffers(2, 1)
            .expect("valid")
            .set_queues(16, 8, 1)
            .expect("valid");
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn], SLOT);
        let mut sw = TsnSwitchCore::new(&spec).expect("valid spec");
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        for seq in 0..2 {
            assert!(sw.receive(ts_frame(dst, seq), SimTime::ZERO)[0].is_enqueued());
        }
        let report = sw.receive(ts_frame(dst, 2), SimTime::ZERO);
        assert_eq!(
            report,
            vec![Disposition::Dropped {
                port: Some(PortId::new(0)),
                reason: DropReason::BufferExhausted
            }]
        );
        assert_eq!(sw.max_pool_high_water(), resources.buffer_num() as usize);
    }

    #[test]
    fn queue_depth_exhaustion_drops() {
        let mut resources = tsn_resource::ResourceConfig::new();
        resources
            .set_queues(2, 8, 1)
            .expect("valid")
            .set_buffers(96, 1)
            .expect("valid");
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn], SLOT);
        let mut sw = TsnSwitchCore::new(&spec).expect("valid spec");
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        for seq in 0..2 {
            assert!(sw.receive(ts_frame(dst, seq), SimTime::ZERO)[0].is_enqueued());
        }
        let report = sw.receive(ts_frame(dst, 2), SimTime::ZERO);
        assert_eq!(
            report,
            vec![Disposition::Dropped {
                port: Some(PortId::new(0)),
                reason: DropReason::QueueOverflow
            }]
        );
        assert_eq!(sw.max_queue_high_water(), 2);
    }

    #[test]
    fn reprovision_adopts_a_queue_depth_down_to_the_occupancy() {
        let mut resources = tsn_resource::ResourceConfig::new();
        resources
            .set_queues(4, 8, 1)
            .expect("valid")
            .set_buffers(96, 1)
            .expect("valid");
        let with_depth = |depth: u32| {
            let mut res = resources.clone();
            res.set_queues(depth, 8, 1).expect("valid");
            res
        };
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn], SLOT);
        let mut sw = TsnSwitchCore::new(&spec).expect("valid spec");
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        let depth = |sw: &TsnSwitchCore| sw.gates(PortId::new(0)).expect("port").queue_depth();

        assert!(sw.reprovision(&with_depth(9)), "a larger depth is adopted");
        assert_eq!(depth(&sw), 9);
        assert!(sw.reprovision(&with_depth(2)), "a smaller depth is adopted");
        assert_eq!(depth(&sw), 2);
        // The adopted depth is enforced like a built one.
        for seq in 0..2 {
            assert!(sw.receive(ts_frame(dst, seq), SimTime::ZERO)[0].is_enqueued());
        }
        assert_eq!(
            sw.receive(ts_frame(dst, 2), SimTime::ZERO),
            vec![Disposition::Dropped {
                port: Some(PortId::new(0)),
                reason: DropReason::QueueOverflow
            }]
        );
        // Two frames are held: depth 1 is below the occupancy.
        assert!(!sw.reprovision(&with_depth(1)));
        assert_eq!(depth(&sw), 2, "a refused depth changes nothing");
        assert!(sw.reprovision(&with_depth(2)));
    }

    #[test]
    fn spec_validation_checks_tsn_port_budget() {
        let mut resources = tsn_resource::ResourceConfig::new();
        resources.set_buffers(96, 1).expect("valid"); // port_num = 1
        let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn, PortKind::Tsn], SLOT);
        assert!(TsnSwitchCore::new(&spec).is_err());
    }

    #[test]
    fn edge_ports_do_not_hold_frames_for_a_slot() {
        let mut sw = default_core();
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(1))
            .expect("fits");
        sw.receive(ts_frame(dst, 0), SimTime::ZERO);
        // Port 1 is an edge port: dequeue works immediately.
        assert!(sw.dequeue(PortId::new(1), SimTime::ZERO).is_some());
    }

    #[test]
    fn nonstandard_queue_counts_build_layouts() {
        for n in [2u32, 3, 4, 6, 12] {
            let mut resources = tsn_resource::ResourceConfig::new();
            resources.set_queues(8, n, 1).expect("valid");
            resources.set_gate_tbl(2, n, 1).expect("valid");
            let spec = SwitchSpec::new(&resources, vec![PortKind::Tsn], SLOT);
            let sw = TsnSwitchCore::new(&spec).expect("valid spec");
            assert_eq!(
                sw.gates(PortId::new(0)).expect("port").layout().queue_num(),
                n as usize
            );
        }
    }

    #[test]
    fn dequeue_class_splits_express_and_preemptable() {
        let mut sw = default_core();
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(1))
            .expect("fits");
        // Port 1 is an edge port (always-open gates): enqueue one TS and
        // one BE frame.
        sw.receive(ts_frame(dst, 0), SimTime::ZERO);
        let be = EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(dst)
            .class(TrafficClass::BestEffort)
            .size_bytes(64)
            .build()
            .expect("valid frame");
        sw.receive(be, SimTime::ZERO);

        assert!(sw.express_ready(PortId::new(1), SimTime::ZERO));
        // The preemptable MAC never serves the TS frame.
        let (q_be, f_be) = sw
            .dequeue_class(PortId::new(1), SimTime::ZERO, Some(false))
            .expect("BE eligible");
        assert_eq!(f_be.class(), TrafficClass::BestEffort);
        assert!(sw
            .gates(PortId::new(1))
            .expect("port")
            .layout()
            .be_queues()
            .contains(&q_be));
        // And the express MAC never serves BE.
        assert!(sw
            .dequeue_class(PortId::new(1), SimTime::ZERO, Some(false))
            .is_none());
        let (_, f_ts) = sw
            .dequeue_class(PortId::new(1), SimTime::ZERO, Some(true))
            .expect("TS eligible");
        assert_eq!(f_ts.class(), TrafficClass::TimeSensitive);
        assert!(!sw.express_ready(PortId::new(1), SimTime::ZERO));
    }

    #[test]
    fn express_ready_respects_cqf_gates() {
        let mut sw = default_core();
        let dst = MacAddr::station(9);
        sw.add_unicast(dst, VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        sw.receive(ts_frame(dst, 0), SimTime::ZERO);
        // Same slot: the frame fills, it is not yet drainable.
        assert!(!sw.express_ready(PortId::new(0), SimTime::ZERO));
        // Next slot: express is ready.
        assert!(sw.express_ready(PortId::new(0), SimTime::ZERO + SLOT));
    }

    #[test]
    fn control_plane_rejects_unknown_ports() {
        let mut sw = default_core();
        assert!(sw
            .add_unicast(MacAddr::station(9), VlanId::DEFAULT, PortId::new(7))
            .is_err());
        assert!(sw
            .set_shaper(PortId::new(7), 0, DataRate::mbps(10))
            .is_err());
    }
}
