//! The **Ingress Filter** template: classifier + meters (Fig. 5).
//!
//! "The classification table in *Ingress Filter* is used to get Meter and
//! Queue ID based on the combination of *Src MAC*, *Dst MAC*, *VID* and
//! *PRI* carried in the packet header. Then, the *Meter ID* is used to find
//! the corresponding meter that regulates a flow with its current rate. The
//! *Queue ID* indicates which queue the packet would be enqueued."
//! (Section III.B) — this is the per-stream filtering and policing role of
//! 802.1Qci.

use crate::layout::QueueLayout;
use crate::table::CapTable;
use tsn_types::{
    DataRate, EthernetFrame, MacAddr, MeterId, Pcp, QueueId, SimTime, TrafficClass, TsnError,
    TsnResult, VlanId,
};

/// Classification key: the 4-tuple the paper's classifier matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassKey {
    /// Source MAC address.
    pub src: MacAddr,
    /// Destination MAC address.
    pub dst: MacAddr,
    /// VLAN identifier.
    pub vlan: VlanId,
    /// Priority code point (`PRI`).
    pub pcp: Pcp,
}

impl ClassKey {
    /// Extracts the classification key from a frame.
    #[must_use]
    pub fn of(frame: &EthernetFrame) -> Self {
        ClassKey {
            src: frame.src(),
            dst: frame.dst(),
            vlan: frame.vlan(),
            pcp: frame.pcp(),
        }
    }
}

/// A classification entry: where the flow's frames go and which meter
/// polices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassEntry {
    /// Target queue.
    pub queue: QueueId,
    /// Policing meter, if the flow is rate-regulated.
    pub meter: Option<MeterId>,
}

/// A single-rate two-colour token-bucket meter.
///
/// Tokens (in bits) refill at `rate` up to `burst_bytes`; a frame passes if
/// the bucket holds at least its size, otherwise it is dropped (coloured
/// red). This is the shape the paper's Verilog meter template implements.
///
/// # Example
///
/// ```
/// use tsn_switch::ingress_filter::TokenBucketMeter;
/// use tsn_types::{DataRate, SimTime, SimDuration};
///
/// let mut meter = TokenBucketMeter::new(DataRate::mbps(8), 2_000)?;
/// let t0 = SimTime::ZERO;
/// assert!(meter.police(t0, 1_500));          // burst allows it
/// assert!(!meter.police(t0, 1_500), "bucket exhausted");
/// // 8 Mbps refills 1 500 B in 1.5 ms.
/// assert!(meter.police(t0 + SimDuration::from_micros(1_500), 1_500));
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucketMeter {
    rate: DataRate,
    burst_bits: u64,
    /// Bits earned are computed from scratch against this horizon on
    /// every decision, so rounding never accumulates (a meter fed at
    /// exactly its rate stays green forever).
    last_seen: SimTime,
    consumed_bits: u64,
    passed: u64,
    dropped: u64,
}

impl TokenBucketMeter {
    /// Creates a meter with committed information rate `rate` and burst
    /// size `burst_bytes` (the bucket starts full).
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidParameter`] if the rate or burst is zero.
    pub fn new(rate: DataRate, burst_bytes: u32) -> TsnResult<Self> {
        if rate.is_zero() {
            return Err(TsnError::invalid_parameter("rate", "must be non-zero"));
        }
        if burst_bytes == 0 {
            return Err(TsnError::invalid_parameter(
                "burst_bytes",
                "must be non-zero",
            ));
        }
        let burst_bits = u64::from(burst_bytes) * 8;
        Ok(TokenBucketMeter {
            rate,
            burst_bits,
            last_seen: SimTime::ZERO,
            consumed_bits: 0,
            passed: 0,
            dropped: 0,
        })
    }

    /// Polices one frame of `frame_bytes` at time `now`. Returns `true`
    /// if the frame conforms (passes).
    ///
    /// Time may not go backwards; out-of-order calls refill nothing.
    pub fn police(&mut self, now: SimTime, frame_bytes: u32) -> bool {
        self.last_seen = self.last_seen.max(now);
        let need = u64::from(frame_bytes) * 8;
        if self.tokens_at_horizon() >= need {
            self.consume(need);
            self.passed += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Tokens currently in the bucket: `min(burst, burst + earned −
    /// consumed)`, with `earned` recomputed from the epoch in one step.
    fn tokens_at_horizon(&self) -> u64 {
        let earned = (self.rate.bits_per_sec() as u128 * self.last_seen.as_nanos() as u128
            / 1_000_000_000) as u64;
        (self.burst_bits + earned)
            .saturating_sub(self.consumed_bits)
            .min(self.burst_bits)
    }

    fn consume(&mut self, need: u64) {
        // Consuming from a capped bucket: anything earned beyond the cap
        // is gone, so re-baseline `consumed` against the cap first.
        let earned = (self.rate.bits_per_sec() as u128 * self.last_seen.as_nanos() as u128
            / 1_000_000_000) as u64;
        let uncapped = (self.burst_bits + earned).saturating_sub(self.consumed_bits);
        if uncapped > self.burst_bits {
            self.consumed_bits = earned; // bucket was full: forget the overflow
        }
        self.consumed_bits += need;
    }

    /// The committed rate.
    #[must_use]
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// Frames passed so far.
    #[must_use]
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Frames dropped (red) so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Why the ingress filter dropped a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterDrop {
    /// The frame's meter was out of tokens.
    MeterRed,
    /// The classification entry referenced a meter id outside the meter
    /// table (configuration error surfaced at runtime, like hardware
    /// would).
    DanglingMeter,
    /// The frame-check sequence did not verify: the frame was corrupted in
    /// transit and must not be delivered.
    FcsError,
}

/// Outcome of classifying one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Frame accepted, to be enqueued on `queue` of the egress port.
    Accept {
        /// Target queue id.
        queue: QueueId,
        /// Whether the decision came from a classification-table hit
        /// (`true`) or the PCP fallback (`false`).
        table_hit: bool,
    },
    /// Frame dropped by policing.
    Drop(FilterDrop),
}

/// The ingress-filter template instance.
///
/// Resource parameters: `class_size` entries in the classification table
/// and `meter_size` meters (Table II: `set_class_tbl`, `set_meter_tbl`).
#[derive(Debug, Clone)]
pub struct IngressFilter {
    class_table: CapTable<ClassKey, ClassEntry>,
    /// Installed meters by id. Only ids up to the highest installed one
    /// take storage; `meter_size` is the check on installs.
    meters: Vec<Option<TokenBucketMeter>>,
    meter_size: usize,
    layout: QueueLayout,
    fallback_hits: u64,
}

impl IngressFilter {
    /// Creates the template with the given table sizes and queue layout.
    #[must_use]
    pub fn new(class_size: usize, meter_size: usize, layout: QueueLayout) -> Self {
        IngressFilter {
            class_table: CapTable::new("classification table", class_size),
            meters: Vec::new(),
            meter_size,
            layout,
            fallback_hits: 0,
        }
    }

    /// Installs a classification entry.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::CapacityExceeded`] when the classification
    /// table is full, or [`TsnError::InvalidParameter`] if the entry
    /// references a meter slot outside the meter table.
    pub fn add_class_entry(&mut self, key: ClassKey, entry: ClassEntry) -> TsnResult<()> {
        if let Some(meter) = entry.meter {
            if meter.as_usize() >= self.meter_size {
                return Err(TsnError::invalid_parameter(
                    "meter",
                    format!(
                        "meter index {} outside meter table of size {}",
                        meter.as_usize(),
                        self.meter_size
                    ),
                ));
            }
        }
        self.class_table.insert(key, entry)?;
        Ok(())
    }

    /// Reserves storage for `entries` classification installs and
    /// `meters` meter installs, each clipped to its table's size
    /// ([`CapTable::reserve`]).
    pub(crate) fn reserve(&mut self, entries: usize, meters: usize) {
        self.class_table.reserve(entries);
        self.meters.reserve_exact(meters.min(self.meter_size));
    }

    /// Installs (or replaces) a meter.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::CapacityExceeded`] if `id` is outside the meter
    /// table.
    pub fn set_meter(&mut self, id: MeterId, meter: TokenBucketMeter) -> TsnResult<()> {
        let index = id.as_usize();
        if index >= self.meter_size {
            return Err(TsnError::capacity("meter table", self.meter_size));
        }
        if index >= self.meters.len() {
            self.meters.resize(index + 1, None);
        }
        self.meters[index] = Some(meter);
        Ok(())
    }

    /// Re-provisions the filter's table sizes in place, keeping the
    /// programmed entries — the incremental-reconfiguration path.
    ///
    /// Returns `false` (without mutating anything) when the installed
    /// state does not fit the new sizes: the classification table holds
    /// more entries than `class_size`, or a meter is installed at an
    /// index at or beyond `meter_size`. A from-scratch build would have
    /// rejected those installs, so the caller must replay instead.
    #[must_use]
    pub fn reprovision(&mut self, class_size: usize, meter_size: usize) -> bool {
        let meters_used = self
            .meters
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1);
        if meters_used > meter_size || !self.class_table.set_capacity(class_size) {
            return false;
        }
        self.meter_size = meter_size;
        true
    }

    /// Classifies and polices one frame.
    ///
    /// A classification-table hit yields the configured queue and meter.
    /// A miss falls back to the PCP → class → default-queue mapping (the
    /// frame is not dropped: BE traffic does not need table entries).
    pub fn classify(&mut self, frame: &EthernetFrame, now: SimTime) -> FilterVerdict {
        // FCS check runs before classification: a corrupted header cannot
        // be trusted to index any table.
        if frame.is_corrupted() {
            return FilterVerdict::Drop(FilterDrop::FcsError);
        }
        let key = ClassKey::of(frame);
        match self.class_table.get(&key).copied() {
            Some(entry) => {
                if let Some(meter_id) = entry.meter {
                    match self.meters.get_mut(meter_id.as_usize()) {
                        Some(Some(meter)) => {
                            if !meter.police(now, frame.size_bytes()) {
                                return FilterVerdict::Drop(FilterDrop::MeterRed);
                            }
                        }
                        _ => return FilterVerdict::Drop(FilterDrop::DanglingMeter),
                    }
                }
                FilterVerdict::Accept {
                    queue: entry.queue,
                    table_hit: true,
                }
            }
            None => {
                self.fallback_hits += 1;
                let class = TrafficClass::from_pcp(frame.pcp());
                FilterVerdict::Accept {
                    queue: self.layout.default_queue(class),
                    table_hit: false,
                }
            }
        }
    }

    /// The queue layout the filter maps fallback traffic onto.
    #[must_use]
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Frames classified via the PCP fallback (table misses).
    #[must_use]
    pub fn fallback_hits(&self) -> u64 {
        self.fallback_hits
    }

    /// Read access to a meter (for reports/tests).
    #[must_use]
    pub fn meter(&self, id: MeterId) -> Option<&TokenBucketMeter> {
        self.meters.get(id.as_usize()).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_types::{FlowId, SimDuration};

    fn frame(pcp: u8, size: u32) -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(1))
            .dst(MacAddr::station(2))
            .pcp(Pcp::new(pcp).expect("valid pcp"))
            .size_bytes(size)
            .flow(FlowId::new(0))
            .build()
            .expect("valid frame")
    }

    fn filter() -> IngressFilter {
        IngressFilter::new(16, 4, QueueLayout::standard8())
    }

    #[test]
    fn table_hit_returns_configured_queue() {
        let mut f = filter();
        let frm = frame(7, 64);
        f.add_class_entry(
            ClassKey::of(&frm),
            ClassEntry {
                queue: QueueId::new(6),
                meter: None,
            },
        )
        .expect("fits");
        assert_eq!(
            f.classify(&frm, SimTime::ZERO),
            FilterVerdict::Accept {
                queue: QueueId::new(6),
                table_hit: true
            }
        );
    }

    #[test]
    fn miss_falls_back_to_pcp_band() {
        let mut f = filter();
        assert_eq!(
            f.classify(&frame(0, 64), SimTime::ZERO),
            FilterVerdict::Accept {
                queue: QueueId::new(0),
                table_hit: false
            }
        );
        assert_eq!(
            f.classify(&frame(4, 64), SimTime::ZERO),
            FilterVerdict::Accept {
                queue: QueueId::new(3),
                table_hit: false
            }
        );
        assert_eq!(f.fallback_hits(), 2);
    }

    #[test]
    fn meter_red_drops_and_recovers() {
        let mut f = filter();
        let frm = frame(4, 1024);
        f.set_meter(
            MeterId::new(1),
            TokenBucketMeter::new(DataRate::mbps(8), 1024).expect("valid meter"),
        )
        .expect("slot exists");
        f.add_class_entry(
            ClassKey::of(&frm),
            ClassEntry {
                queue: QueueId::new(4),
                meter: Some(MeterId::new(1)),
            },
        )
        .expect("fits");

        let t0 = SimTime::ZERO;
        assert!(matches!(f.classify(&frm, t0), FilterVerdict::Accept { .. }));
        assert_eq!(
            f.classify(&frm, t0),
            FilterVerdict::Drop(FilterDrop::MeterRed)
        );
        // After 1.024 ms the 8 Mbps meter regains 1024 B.
        let later = t0 + SimDuration::from_micros(1_024);
        assert!(matches!(
            f.classify(&frm, later),
            FilterVerdict::Accept { .. }
        ));
        let meter = f.meter(MeterId::new(1)).expect("installed");
        assert_eq!(meter.passed(), 2);
        assert_eq!(meter.dropped(), 1);
    }

    #[test]
    fn corrupted_frames_fail_the_fcs_check() {
        let mut f = filter();
        let frm = frame(7, 64);
        f.add_class_entry(
            ClassKey::of(&frm),
            ClassEntry {
                queue: QueueId::new(6),
                meter: None,
            },
        )
        .expect("fits");
        // Even a frame with a matching table entry is refused once marked
        // corrupted — and it does not count as a fallback hit either.
        assert_eq!(
            f.classify(&frm.with_corruption(), SimTime::ZERO),
            FilterVerdict::Drop(FilterDrop::FcsError)
        );
        assert_eq!(f.fallback_hits(), 0);
    }

    #[test]
    fn dangling_meter_reference_is_a_drop() {
        let mut f = filter();
        let frm = frame(4, 64);
        // Slot 2 exists but holds no meter.
        f.add_class_entry(
            ClassKey::of(&frm),
            ClassEntry {
                queue: QueueId::new(4),
                meter: Some(MeterId::new(2)),
            },
        )
        .expect("fits");
        assert_eq!(
            f.classify(&frm, SimTime::ZERO),
            FilterVerdict::Drop(FilterDrop::DanglingMeter)
        );
    }

    #[test]
    fn entries_cannot_reference_out_of_range_meters() {
        let mut f = filter();
        let frm = frame(4, 64);
        assert!(f
            .add_class_entry(
                ClassKey::of(&frm),
                ClassEntry {
                    queue: QueueId::new(4),
                    meter: Some(MeterId::new(99)),
                },
            )
            .is_err());
        assert!(f
            .set_meter(
                MeterId::new(99),
                TokenBucketMeter::new(DataRate::mbps(1), 64).expect("valid meter")
            )
            .is_err());
    }

    #[test]
    fn class_capacity_is_enforced() {
        let mut f = IngressFilter::new(1, 1, QueueLayout::standard8());
        let a = frame(7, 64);
        let b = frame(6, 64);
        f.add_class_entry(
            ClassKey::of(&a),
            ClassEntry {
                queue: QueueId::new(7),
                meter: None,
            },
        )
        .expect("fits");
        assert!(f
            .add_class_entry(
                ClassKey::of(&b),
                ClassEntry {
                    queue: QueueId::new(7),
                    meter: None,
                },
            )
            .is_err());
        assert_eq!(f.class_table.occupancy(), 1);
    }

    #[test]
    fn token_bucket_never_exceeds_burst() {
        let mut m = TokenBucketMeter::new(DataRate::gbps(1), 100).expect("valid meter");
        // Long idle: bucket must still cap at burst.
        assert!(!m.police(SimTime::from_secs_helper(10), 200));
        assert!(m.police(SimTime::from_secs_helper(10), 100));
    }

    // Local helper: SimTime lacks from_secs by design; keep the test
    // readable without widening the public API.
    trait FromSecs {
        fn from_secs_helper(secs: u64) -> SimTime;
    }
    impl FromSecs for SimTime {
        fn from_secs_helper(secs: u64) -> SimTime {
            SimTime::from_nanos(secs * 1_000_000_000)
        }
    }

    #[test]
    fn meter_validation() {
        assert!(TokenBucketMeter::new(DataRate::ZERO, 100).is_err());
        assert!(TokenBucketMeter::new(DataRate::mbps(1), 0).is_err());
    }

    #[test]
    fn time_going_backwards_does_not_refill() {
        let mut m = TokenBucketMeter::new(DataRate::mbps(8), 64).expect("valid meter");
        assert!(m.police(SimTime::from_millis(5), 64));
        // Earlier timestamp: no refill, bucket stays empty.
        assert!(!m.police(SimTime::from_millis(1), 64));
    }
}
