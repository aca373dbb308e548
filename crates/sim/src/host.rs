//! The TSNNic model: an end device that generates TS/RC/BE flows and
//! sinks delivered frames.
//!
//! The paper's testbed uses a custom FPGA network tester ("TSNNic") to
//! inject user-defined flows; this module is its behavioural stand-in.
//! Time-sensitive generators fire strictly periodically at a planned
//! offset (the injection-time-planning hook); rate generators emit
//! fixed-size frames at a constant bit rate. The host NIC serves its
//! output queues in strict class priority so a saturating best-effort
//! generator cannot starve TS injections.

use std::collections::VecDeque;
use tsn_types::{
    DataRate, EthernetFrame, FlowId, MacAddr, NodeId, SimDuration, SimTime, TrafficClass,
    TsnResult, VlanId,
};

/// Cap on each per-class host output queue; overflow counts as host-side
/// loss (only reachable when a generator persistently outruns the link).
pub const HOST_QUEUE_CAP: usize = 4096;

/// One traffic generator on a host.
#[derive(Debug, Clone)]
pub struct Generator {
    flow: FlowId,
    class: TrafficClass,
    dst_mac: MacAddr,
    vlan: VlanId,
    frame_bytes: u32,
    /// Time between injections.
    period: SimDuration,
    /// First injection instant.
    offset: SimDuration,
    /// CQF slot grid the generator re-aligns to after every period
    /// (TS only; `None` = free-running).
    slot_align: Option<SimDuration>,
    next_seq: u64,
}

impl Generator {
    /// A periodic time-sensitive generator.
    #[must_use]
    pub fn time_sensitive(
        flow: FlowId,
        dst_mac: MacAddr,
        vlan: VlanId,
        frame_bytes: u32,
        period: SimDuration,
        offset: SimDuration,
    ) -> Self {
        Generator {
            flow,
            class: TrafficClass::TimeSensitive,
            dst_mac,
            vlan,
            frame_bytes,
            period,
            offset,
            slot_align: None,
            next_seq: 0,
        }
    }

    /// Re-aligns every injection of this generator up to the given CQF
    /// slot grid — what a CQF talker does when its period is not an
    /// integer number of slots (e.g. the paper's 10 ms period over a
    /// 65 µs slot). Without alignment the release times drift through
    /// the slots and planned offsets lose their meaning.
    #[must_use]
    pub fn aligned_to(mut self, slot: SimDuration) -> Self {
        if !slot.is_zero() {
            self.slot_align = Some(slot);
        }
        self
    }

    /// A constant-bit-rate generator for RC or BE traffic: fixed-size
    /// frames with an inter-frame gap chosen so the average rate is
    /// `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero (callers validate flow specs first).
    #[must_use]
    pub fn constant_rate(
        flow: FlowId,
        class: TrafficClass,
        dst_mac: MacAddr,
        vlan: VlanId,
        frame_bytes: u32,
        rate: DataRate,
        offset: SimDuration,
    ) -> Self {
        assert!(!rate.is_zero(), "constant-rate generator needs a rate");
        let bits = u64::from(frame_bytes) * 8;
        let gap_ns = bits * 1_000_000_000 / rate.bits_per_sec().max(1);
        Generator {
            flow,
            class,
            dst_mac,
            vlan,
            frame_bytes,
            period: SimDuration::from_nanos(gap_ns.max(1)),
            offset,
            slot_align: None,
            next_seq: 0,
        }
    }

    /// The generator's flow id.
    #[must_use]
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The generator's class.
    #[must_use]
    pub fn class(&self) -> TrafficClass {
        self.class
    }

    /// First injection instant.
    #[must_use]
    pub fn first_injection(&self) -> SimTime {
        SimTime::ZERO + self.offset
    }

    /// Injection period.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }
}

/// An end device: generators plus a strict-priority output stage.
#[derive(Debug, Clone)]
pub struct Host {
    node: NodeId,
    mac: MacAddr,
    generators: Vec<Generator>,
    /// Output queues indexed by class priority (0 = BE, 1 = RC, 2 = TS).
    out: [VecDeque<EthernetFrame>; 3],
    overflow_drops: u64,
}

impl Host {
    /// Creates a host with no generators.
    #[must_use]
    pub fn new(node: NodeId, mac: MacAddr) -> Self {
        Host {
            node,
            mac,
            generators: Vec::new(),
            out: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            overflow_drops: 0,
        }
    }

    /// The host's node id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The host's station MAC address.
    #[must_use]
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Reserves room for exactly `generators` more generators, so a host
    /// holds the talkers it has and no doubling slack.
    pub(crate) fn reserve_generators(&mut self, generators: usize) {
        self.generators.reserve_exact(generators);
    }

    /// Adds a generator, returning its index (used in `Inject` events).
    pub fn add_generator(&mut self, generator: Generator) -> usize {
        self.generators.push(generator);
        self.generators.len() - 1
    }

    /// The generators.
    #[must_use]
    pub fn generators(&self) -> &[Generator] {
        &self.generators
    }

    /// Builds and queues the next frame of generator `index` at `now`.
    /// Returns the injected frame's class (for analyzer accounting, even
    /// if the host queue overflowed) and the time of the generator's next
    /// injection.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown generator index or if the frame
    /// parameters are invalid (never happens for validated flow specs).
    pub fn inject(&mut self, index: usize, now: SimTime) -> TsnResult<InjectOutcome> {
        let src_mac = self.mac;
        let generator = self.generators.get_mut(index).ok_or_else(|| {
            tsn_types::TsnError::invalid_parameter("generator", format!("no generator {index}"))
        })?;
        let frame = EthernetFrame::builder()
            .src(src_mac)
            .dst(generator.dst_mac)
            .vlan(generator.vlan)
            .class(generator.class)
            .size_bytes(generator.frame_bytes)
            .flow(generator.flow)
            .sequence(generator.next_seq)
            .injected_at(now)
            .build()?;
        generator.next_seq += 1;
        let mut next = now + generator.period;
        if let Some(slot) = generator.slot_align {
            next = next.align_up(slot);
        }
        let class = generator.class;
        let flow = generator.flow;

        let queue = &mut self.out[class_slot(class)];
        let queued = if queue.len() >= HOST_QUEUE_CAP {
            self.overflow_drops += 1;
            false
        } else {
            queue.push_back(frame);
            true
        };
        Ok(InjectOutcome {
            flow,
            class,
            queued,
            next_injection: next,
        })
    }

    /// Pops the next frame to serialize: TS before RC before BE.
    pub fn pop_next(&mut self) -> Option<EthernetFrame> {
        self.pop_next_class(None)
    }

    /// As [`Host::pop_next`], restricted to one side of the 802.3br
    /// split: `Some(true)` pops only TS (express) frames, `Some(false)`
    /// only RC/BE (preemptable) frames.
    pub fn pop_next_class(&mut self, express: Option<bool>) -> Option<EthernetFrame> {
        let slots: &[usize] = match express {
            None => &[2, 1, 0],
            Some(true) => &[2],
            Some(false) => &[1, 0],
        };
        for &slot in slots {
            if let Some(frame) = self.out[slot].pop_front() {
                return Some(frame);
            }
        }
        None
    }

    /// Whether an express (TS) frame is waiting.
    #[must_use]
    pub fn express_queued(&self) -> bool {
        !self.out[2].is_empty()
    }

    /// Total frames waiting in the output stage.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.out.iter().map(VecDeque::len).sum()
    }

    /// Frames dropped because an output queue overflowed.
    #[must_use]
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }
}

/// What [`Host::inject`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectOutcome {
    /// The flow that fired.
    pub flow: FlowId,
    /// Its class.
    pub class: TrafficClass,
    /// `false` if the host output queue overflowed (frame lost).
    pub queued: bool,
    /// When the generator fires next.
    pub next_injection: SimTime,
}

fn class_slot(class: TrafficClass) -> usize {
    match class {
        TrafficClass::BestEffort => 0,
        TrafficClass::RateConstrained => 1,
        TrafficClass::TimeSensitive => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(NodeId::new(5), MacAddr::station(5))
    }

    fn ts_gen(flow: u32, offset_us: u64) -> Generator {
        Generator::time_sensitive(
            FlowId::new(flow),
            MacAddr::station(9),
            VlanId::DEFAULT,
            64,
            SimDuration::from_millis(10),
            SimDuration::from_micros(offset_us),
        )
    }

    #[test]
    fn inject_produces_sequenced_frames() {
        let mut h = host();
        let g = h.add_generator(ts_gen(0, 50));
        let first = h.generators()[g].first_injection();
        assert_eq!(first, SimTime::from_micros(50));

        let out1 = h.inject(g, first).expect("valid generator");
        assert_eq!(out1.next_injection, first + SimDuration::from_millis(10));
        let out2 = h.inject(g, out1.next_injection).expect("valid generator");
        assert!(out2.queued);
        let f1 = h.pop_next().expect("queued");
        let f2 = h.pop_next().expect("queued");
        assert_eq!(f1.sequence(), 0);
        assert_eq!(f2.sequence(), 1);
        assert_eq!(f1.injected_at(), first);
        assert_eq!(f1.src(), MacAddr::station(5));
    }

    #[test]
    fn strict_priority_at_the_host_nic() {
        let mut h = host();
        let be = h.add_generator(Generator::constant_rate(
            FlowId::new(1),
            TrafficClass::BestEffort,
            MacAddr::station(9),
            VlanId::DEFAULT,
            1024,
            DataRate::mbps(100),
            SimDuration::ZERO,
        ));
        let ts = h.add_generator(ts_gen(0, 0));
        h.inject(be, SimTime::ZERO).expect("valid");
        h.inject(be, SimTime::ZERO).expect("valid");
        h.inject(ts, SimTime::ZERO).expect("valid");
        // TS pops first despite being injected last.
        assert_eq!(
            h.pop_next().expect("queued").class(),
            TrafficClass::TimeSensitive
        );
        assert_eq!(h.queued(), 2);
    }

    #[test]
    fn constant_rate_gap_matches_rate() {
        let g = Generator::constant_rate(
            FlowId::new(2),
            TrafficClass::RateConstrained,
            MacAddr::station(9),
            VlanId::DEFAULT,
            1024,
            DataRate::mbps(8),
            SimDuration::ZERO,
        );
        // 8192 bits at 8 Mbps = 1.024 ms between frames.
        assert_eq!(g.period(), SimDuration::from_micros(1024));
    }

    #[test]
    fn class_filtered_pop_serves_the_right_mac() {
        let mut h = host();
        let be = h.add_generator(Generator::constant_rate(
            FlowId::new(1),
            TrafficClass::BestEffort,
            MacAddr::station(9),
            VlanId::DEFAULT,
            1024,
            DataRate::mbps(100),
            SimDuration::ZERO,
        ));
        let ts = h.add_generator(ts_gen(0, 0));
        h.inject(be, SimTime::ZERO).expect("valid");
        h.inject(ts, SimTime::ZERO).expect("valid");
        assert!(h.express_queued());
        // The preemptable side never yields the TS frame.
        assert_eq!(
            h.pop_next_class(Some(false)).expect("BE queued").class(),
            TrafficClass::BestEffort
        );
        assert!(h.pop_next_class(Some(false)).is_none());
        assert_eq!(
            h.pop_next_class(Some(true)).expect("TS queued").class(),
            TrafficClass::TimeSensitive
        );
        assert!(!h.express_queued());
    }

    #[test]
    fn queue_overflow_is_counted_not_fatal() {
        let mut h = host();
        let g = h.add_generator(ts_gen(0, 0));
        let mut t = SimTime::ZERO;
        for _ in 0..HOST_QUEUE_CAP + 3 {
            let out = h.inject(g, t).expect("valid");
            t = out.next_injection;
        }
        assert_eq!(h.queued(), HOST_QUEUE_CAP);
        assert_eq!(h.overflow_drops(), 3);
    }

    #[test]
    fn generators_are_reserved_exactly() {
        let mut h = host();
        h.reserve_generators(3);
        for flow in 0..3 {
            h.add_generator(ts_gen(flow, 0));
        }
        assert_eq!(h.generators.capacity(), 3, "no doubling slack");
        assert_eq!(std::mem::size_of::<Generator>(), 64);
    }

    #[test]
    fn unknown_generator_errors() {
        let mut h = host();
        assert!(h.inject(0, SimTime::ZERO).is_err());
    }
}
