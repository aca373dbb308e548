//! The **Egress Sched** template: strict-priority selection plus
//! credit-based shapers (Fig. 5).
//!
//! "The scheduler selects a packet with a strict priority algorithm. The
//! CBS is implemented based on a token bucket. … The *idleSlope* and
//! *sendSlope* in the CBS Table of each port represent the increase rate
//! and decrease rate of the credits." (Sections III.B/III.C)
//!
//! Rate-constrained queues are mapped onto shapers through the CBS MAP
//! table; a shaped queue may only transmit while its credit is
//! non-negative (802.1Qav semantics).

use crate::gate_ctrl::GateCtrl;
use tsn_types::{DataRate, QueueId, SimTime, TsnError, TsnResult};

/// One credit-based shaper (one CBS-table entry).
///
/// Credits are tracked in bits: they rise at `idleSlope` while the shaped
/// queue has backlog (or while recovering from negative credit), fall by
/// the frame size minus the idle-slope contribution during transmission,
/// and reset to zero when the queue goes idle with positive credit.
#[derive(Debug, Clone, PartialEq)]
pub struct CreditBasedShaper {
    idle_slope: DataRate,
    credit_bits: f64,
    last_update: SimTime,
}

impl CreditBasedShaper {
    /// Creates a shaper with the given `idleSlope` (the bandwidth reserved
    /// for the queue).
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidParameter`] if the slope is zero.
    pub fn new(idle_slope: DataRate) -> TsnResult<Self> {
        if idle_slope.is_zero() {
            return Err(TsnError::invalid_parameter(
                "idle_slope",
                "must be non-zero",
            ));
        }
        Ok(CreditBasedShaper {
            idle_slope,
            credit_bits: 0.0,
            last_update: SimTime::ZERO,
        })
    }

    /// The configured `idleSlope`.
    #[must_use]
    pub fn idle_slope(&self) -> DataRate {
        self.idle_slope
    }

    /// Current credit in bits (may be negative right after a
    /// transmission).
    #[must_use]
    pub fn credit_bits(&self) -> f64 {
        self.credit_bits
    }

    /// Whether the shaped queue may start a transmission.
    #[must_use]
    pub fn eligible(&self) -> bool {
        self.credit_bits >= 0.0
    }

    /// Advances the shaper to `now`. `backlogged` says whether the shaped
    /// queue currently holds frames.
    ///
    /// * backlog, or negative credit → credit rises at `idleSlope`
    ///   (negative credit recovers even without backlog, capped at 0);
    /// * idle with positive credit → credit resets to 0 (the 802.1Qav
    ///   "credit is set to zero when the queue is empty" rule).
    pub fn sync(&mut self, now: SimTime, backlogged: bool) {
        if now <= self.last_update {
            return;
        }
        let dt_ns = (now - self.last_update).as_nanos() as f64;
        let gain = self.idle_slope.bits_per_sec() as f64 * dt_ns / 1e9;
        if backlogged {
            self.credit_bits += gain;
        } else if self.credit_bits < 0.0 {
            self.credit_bits = (self.credit_bits + gain).min(0.0);
        } else {
            self.credit_bits = 0.0;
        }
        self.last_update = now;
    }

    /// Charges one transmitted frame: over the transmission interval the
    /// credit falls by the frame's bits while still earning `idleSlope`
    /// (equivalently, falls at `sendSlope = idleSlope − portRate`).
    pub fn on_transmitted(&mut self, frame_bits: u64, tx_start: SimTime, tx_end: SimTime) {
        self.sync(tx_start, true);
        let dt_ns = tx_end.saturating_since(tx_start).as_nanos() as f64;
        let gain = self.idle_slope.bits_per_sec() as f64 * dt_ns / 1e9;
        self.credit_bits += gain - frame_bits as f64;
        self.last_update = tx_end;
    }
}

/// The egress-scheduler template for one port: strict priority over the
/// queues (higher queue id wins, matching the standard layout where the
/// TS pair occupies the top ids) with per-queue credit-based shaping.
///
/// Resource parameters: `cbs_map_size` queue→shaper mappings and
/// `cbs_size` shapers (Table II: `set_cbs_tbl`).
#[derive(Debug, Clone)]
pub struct EgressScheduler {
    /// CBS MAP table: queue index → shaper index.
    cbs_map: Vec<Option<usize>>,
    /// CBS table: the shapers.
    shapers: Vec<Option<CreditBasedShaper>>,
    map_capacity: usize,
    mapped: usize,
}

impl EgressScheduler {
    /// Creates a scheduler for a port with `queue_num` queues,
    /// `cbs_map_size` mapping slots and `cbs_size` shaper slots.
    #[must_use]
    pub fn new(queue_num: usize, cbs_map_size: usize, cbs_size: usize) -> Self {
        EgressScheduler {
            cbs_map: vec![None; queue_num],
            shapers: vec![None; cbs_size],
            map_capacity: cbs_map_size,
            mapped: 0,
        }
    }

    /// Installs a shaper in CBS-table slot `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::CapacityExceeded`] if `slot` is outside the CBS
    /// table.
    pub fn set_shaper(&mut self, slot: usize, shaper: CreditBasedShaper) -> TsnResult<()> {
        let capacity = self.shapers.len();
        let cell = self
            .shapers
            .get_mut(slot)
            .ok_or_else(|| TsnError::capacity("cbs table", capacity))?;
        *cell = Some(shaper);
        Ok(())
    }

    /// Maps a queue onto a CBS-table slot (one CBS MAP entry).
    ///
    /// # Errors
    ///
    /// * [`TsnError::CapacityExceeded`] if all `cbs_map_size` entries are
    ///   used or the queue index is out of range.
    /// * [`TsnError::InvalidParameter`] if `slot` is outside the CBS
    ///   table.
    pub fn map_queue(&mut self, queue: QueueId, slot: usize) -> TsnResult<()> {
        if slot >= self.shapers.len() {
            return Err(TsnError::invalid_parameter(
                "slot",
                format!("cbs table has {} slots", self.shapers.len()),
            ));
        }
        let map_capacity = self.map_capacity;
        let queue_count = self.cbs_map.len();
        let cell = self
            .cbs_map
            .get_mut(queue.as_usize())
            .ok_or_else(|| TsnError::capacity("queue set", queue_count))?;
        if cell.is_none() {
            if self.mapped >= map_capacity {
                return Err(TsnError::capacity("cbs map table", map_capacity));
            }
            self.mapped += 1;
        }
        *cell = Some(slot);
        Ok(())
    }

    /// Re-provisions the CBS table sizes in place, keeping the installed
    /// shapers and mappings — the incremental-reconfiguration path.
    ///
    /// Returns `false` (without mutating anything) when the installed
    /// state does not fit: more queues are mapped than `cbs_map_size`
    /// allows, or a shaper occupies a slot at or beyond `cbs_size`. A
    /// from-scratch build at those sizes would have rejected an install,
    /// so the caller must replay instead.
    #[must_use]
    pub fn reprovision(&mut self, cbs_map_size: usize, cbs_size: usize) -> bool {
        let slots_used = self
            .shapers
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        // A CBS MAP entry referencing a slot beyond the new table would
        // have failed `map_queue` at install time, not just lost its
        // shaper — so it forces the replay path too.
        let max_mapped_slot = self.cbs_map.iter().flatten().copied().max();
        if self.mapped > cbs_map_size
            || slots_used > cbs_size
            || max_mapped_slot.is_some_and(|s| s >= cbs_size)
        {
            return false;
        }
        self.map_capacity = cbs_map_size;
        self.shapers.resize(cbs_size, None);
        true
    }

    /// Selects the queue to transmit from at `now`: the highest-priority
    /// queue that is gate-eligible and (if shaped) has non-negative
    /// credit. Shapers of backlogged queues are advanced to `now` as a
    /// side effect.
    pub fn select(&mut self, gates: &GateCtrl, now: SimTime) -> Option<QueueId> {
        self.select_filtered(gates, now, |_| true)
    }

    /// As [`EgressScheduler::select`], restricted to queues accepted by
    /// `filter` — the hook frame preemption uses to serve the express
    /// (time-sensitive) and preemptable MACs separately (802.3br).
    pub fn select_filtered(
        &mut self,
        gates: &GateCtrl,
        now: SimTime,
        filter: impl Fn(QueueId) -> bool,
    ) -> Option<QueueId> {
        // Sync every shaper first so credits are current (skipped
        // entirely on the common unshaped port).
        if self.mapped > 0 {
            for q in 0..self.cbs_map.len() {
                if let Some(slot) = self.cbs_map[q] {
                    let backlogged = gates.queue_len(QueueId::new(q as u8)) > 0;
                    if let Some(shaper) = self.shapers.get_mut(slot).and_then(Option::as_mut) {
                        shaper.sync(now, backlogged);
                    }
                }
            }
        }
        // One AND yields every non-empty queue with an open gate; walk
        // the set bits highest-first (strict priority).
        let mut mask = gates.eligible_mask(now);
        while mask != 0 {
            let q = 63 - mask.leading_zeros();
            let queue = QueueId::new(q as u8);
            if filter(queue) && self.credit_ok(queue) {
                return Some(queue);
            }
            mask &= !(1u64 << q);
        }
        None
    }

    fn credit_ok(&self, queue: QueueId) -> bool {
        match self.cbs_map.get(queue.as_usize()).copied().flatten() {
            Some(slot) => self
                .shapers
                .get(slot)
                .and_then(Option::as_ref)
                .is_none_or(CreditBasedShaper::eligible),
            None => true,
        }
    }

    /// Records a completed transmission from `queue`, charging its shaper
    /// if it has one.
    pub fn on_transmitted(
        &mut self,
        queue: QueueId,
        frame_bits: u64,
        tx_start: SimTime,
        tx_end: SimTime,
    ) {
        if let Some(slot) = self.cbs_map.get(queue.as_usize()).copied().flatten() {
            if let Some(shaper) = self.shapers.get_mut(slot).and_then(Option::as_mut) {
                shaper.on_transmitted(frame_bits, tx_start, tx_end);
            }
        }
    }

    /// The instant `queue`'s shaper recovers to non-negative credit, or
    /// `None` if the queue is unshaped or already eligible. The caller is
    /// responsible for knowing the queue is backlogged.
    #[must_use]
    pub fn queue_credit_recovery(&self, queue: QueueId, now: SimTime) -> Option<SimTime> {
        let slot = self.cbs_map.get(queue.as_usize()).copied().flatten()?;
        let shaper = self.shapers.get(slot).and_then(Option::as_ref)?;
        if shaper.eligible() {
            return None;
        }
        let deficit_bits = -shaper.credit_bits();
        let ns = (deficit_bits * 1e9 / shaper.idle_slope().bits_per_sec() as f64).ceil();
        Some(now + tsn_types::SimDuration::from_nanos(ns as u64 + 1))
    }

    /// Settles a shaper's idle period when its queue transitions from
    /// empty to backlogged: negative credit has recovered (capped at 0),
    /// positive credit has reset to 0 (802.1Qav). Calling this at enqueue
    /// time makes the credit trajectory independent of how often the
    /// scheduler happened to be polled while the queue sat empty.
    pub fn note_backlog_start(&mut self, queue: QueueId, now: SimTime) {
        if let Some(slot) = self.cbs_map.get(queue.as_usize()).copied().flatten() {
            if let Some(shaper) = self.shapers.get_mut(slot).and_then(Option::as_mut) {
                shaper.sync(now, false);
            }
        }
    }

    /// Read access to a shaper slot.
    #[must_use]
    pub fn shaper(&self, slot: usize) -> Option<&CreditBasedShaper> {
        self.shapers.get(slot).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_ctrl::{GateControlList, GateCtrl};
    use crate::layout::QueueLayout;
    use tsn_types::{EthernetFrame, MacAddr, SimDuration, TrafficClass};

    const SLOT: SimDuration = SimDuration::from_micros(65);

    fn frame(class: TrafficClass, size: u32) -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(MacAddr::station(2))
            .class(class)
            .size_bytes(size)
            .build()
            .expect("valid frame")
    }

    fn open_gates() -> GateCtrl {
        GateCtrl::new(
            QueueLayout::standard8(),
            16,
            GateControlList::always_open(SLOT),
            GateControlList::always_open(SLOT),
        )
        .expect("valid gates")
    }

    #[test]
    fn strict_priority_prefers_higher_queues() {
        let mut gates = open_gates();
        let mut sched = EgressScheduler::new(8, 3, 3);
        gates
            .enqueue(
                QueueId::new(0),
                frame(TrafficClass::BestEffort, 64),
                SimTime::ZERO,
            )
            .expect("open");
        gates
            .enqueue(
                QueueId::new(3),
                frame(TrafficClass::RateConstrained, 64),
                SimTime::ZERO,
            )
            .expect("open");
        gates
            .enqueue(
                QueueId::new(6),
                frame(TrafficClass::TimeSensitive, 64),
                SimTime::ZERO,
            )
            .expect("open");
        assert_eq!(sched.select(&gates, SimTime::ZERO), Some(QueueId::new(6)));
        gates.pop(QueueId::new(6));
        assert_eq!(sched.select(&gates, SimTime::ZERO), Some(QueueId::new(3)));
        gates.pop(QueueId::new(3));
        assert_eq!(sched.select(&gates, SimTime::ZERO), Some(QueueId::new(0)));
        gates.pop(QueueId::new(0));
        assert_eq!(sched.select(&gates, SimTime::ZERO), None);
    }

    #[test]
    fn shaped_queue_blocks_on_negative_credit_and_recovers() {
        let mut gates = open_gates();
        let mut sched = EgressScheduler::new(8, 3, 3);
        sched
            .set_shaper(
                0,
                CreditBasedShaper::new(DataRate::mbps(100)).expect("valid"),
            )
            .expect("slot");
        sched.map_queue(QueueId::new(3), 0).expect("map");

        let t0 = SimTime::ZERO;
        for _ in 0..2 {
            gates
                .enqueue(
                    QueueId::new(3),
                    frame(TrafficClass::RateConstrained, 1024),
                    t0,
                )
                .expect("open");
        }
        // First frame transmits: credit starts at 0 which is eligible.
        assert_eq!(sched.select(&gates, t0), Some(QueueId::new(3)));
        let popped = gates.pop(QueueId::new(3)).expect("frame");
        let tx_end = t0 + SimDuration::from_nanos(u64::from(popped.size_bytes()) * 8);
        sched.on_transmitted(
            QueueId::new(3),
            u64::from(popped.size_bytes()) * 8,
            t0,
            tx_end,
        );
        // Immediately after, credit is deeply negative: blocked.
        assert_eq!(sched.select(&gates, tx_end), None);
        // 100 Mbps refills 8192 bits in ~82 us.
        let later = tx_end + SimDuration::from_micros(90);
        assert_eq!(sched.select(&gates, later), Some(QueueId::new(3)));
    }

    #[test]
    fn idle_queue_with_positive_credit_resets_to_zero() {
        let mut shaper = CreditBasedShaper::new(DataRate::mbps(100)).expect("valid");
        shaper.sync(SimTime::from_micros(100), true);
        assert!(shaper.credit_bits() > 0.0);
        shaper.sync(SimTime::from_micros(200), false);
        assert_eq!(shaper.credit_bits(), 0.0);
    }

    #[test]
    fn negative_credit_recovers_to_zero_without_backlog() {
        let mut shaper = CreditBasedShaper::new(DataRate::mbps(100)).expect("valid");
        shaper.on_transmitted(8192, SimTime::ZERO, SimTime::from_micros(8));
        assert!(shaper.credit_bits() < 0.0);
        // Without backlog the credit climbs back to 0 but not beyond.
        shaper.sync(SimTime::from_millis(1), false);
        assert_eq!(shaper.credit_bits(), 0.0);
    }

    #[test]
    fn unshaped_queues_ignore_credit() {
        let mut gates = open_gates();
        let mut sched = EgressScheduler::new(8, 3, 3);
        gates
            .enqueue(
                QueueId::new(0),
                frame(TrafficClass::BestEffort, 64),
                SimTime::ZERO,
            )
            .expect("open");
        assert_eq!(sched.select(&gates, SimTime::ZERO), Some(QueueId::new(0)));
    }

    #[test]
    fn cbs_map_capacity_is_enforced() {
        let mut sched = EgressScheduler::new(8, 2, 3);
        sched
            .set_shaper(
                0,
                CreditBasedShaper::new(DataRate::mbps(10)).expect("valid"),
            )
            .expect("slot");
        sched.map_queue(QueueId::new(3), 0).expect("entry 1");
        sched.map_queue(QueueId::new(4), 0).expect("entry 2");
        assert!(sched.map_queue(QueueId::new(5), 0).is_err(), "map full");
        // Remapping an existing entry is allowed.
        sched.map_queue(QueueId::new(3), 0).expect("remap");
        assert_eq!(sched.mapped, 2);
    }

    #[test]
    fn cbs_table_bounds_are_enforced() {
        let mut sched = EgressScheduler::new(8, 3, 1);
        assert!(sched
            .set_shaper(
                1,
                CreditBasedShaper::new(DataRate::mbps(10)).expect("valid")
            )
            .is_err());
        assert!(sched.map_queue(QueueId::new(3), 1).is_err());
        assert!(sched.map_queue(QueueId::new(99), 0).is_err());
    }

    #[test]
    fn shaper_validation() {
        assert!(CreditBasedShaper::new(DataRate::ZERO).is_err());
    }

    #[test]
    fn mapped_queue_without_installed_shaper_is_unshaped() {
        let mut gates = open_gates();
        let mut sched = EgressScheduler::new(8, 3, 3);
        sched
            .map_queue(QueueId::new(3), 2)
            .expect("map to empty slot");
        gates
            .enqueue(
                QueueId::new(3),
                frame(TrafficClass::RateConstrained, 64),
                SimTime::ZERO,
            )
            .expect("open");
        assert_eq!(sched.select(&gates, SimTime::ZERO), Some(QueueId::new(3)));
    }
}
