//! The TSN analyzer: per-flow latency / jitter / loss measurement.
//!
//! Models the analyzer box of the paper's testbed (Fig. 6): every
//! delivered frame is matched against its injection record; the paper
//! reports average latency, jitter as the standard deviation of latency,
//! and packet loss. On top of the paper's mean/std, [`LatencyStats`]
//! keeps a fixed-bucket log2 histogram so tail quantiles (p50/p99/p999)
//! are available in O(1) memory per flow at 100k–1M-flow scale.
//!
//! The analyzer stores per-flow state in dense `FlowId`-indexed parallel
//! vectors (SoA) rather than a keyed map: the per-frame hot path is one
//! bounds check and an indexed increment, and iteration is in flow-id
//! order — which keeps the class-level Welford float merges deterministic
//! (float merging is not associative, so a hash-ordered walk would make
//! "the same run" produce different aggregate stats across processes).

use tsn_types::{FlowId, SimDuration, SimTime, TrafficClass};

/// Number of buckets in the [`LatencyStats`] latency histogram: one per
/// power of two of nanoseconds, covering the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// The histogram bucket a latency sample falls into: `floor(log2(ns))`,
/// with 0 ns sharing bucket 0 (samples below 2 ns).
#[must_use]
pub fn hist_bucket(ns: u64) -> usize {
    63 - (ns | 1).leading_zeros() as usize
}

/// Inclusive `(low, high)` bounds of a histogram bucket in nanoseconds.
///
/// # Panics
///
/// Panics if `bucket >= HIST_BUCKETS`.
#[must_use]
pub fn hist_bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < HIST_BUCKETS);
    let lo = if bucket == 0 { 0 } else { 1u64 << bucket };
    let hi = if bucket == 63 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    };
    (lo, hi)
}

/// Streaming latency statistics: Welford mean/std plus a fixed-bucket
/// log2 histogram for tail quantiles.
///
/// The histogram is allocated lazily on the first sample, so flows that
/// never deliver cost nothing beyond the struct itself. Bucket counts are
/// integers, so merging histograms is exact and associative — unlike the
/// float Welford state, histogram-derived quantiles are immune to merge
/// order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LatencyStats {
    count: u64,
    mean_ns: f64,
    m2: f64,
    min_ns: u64,
    max_ns: u64,
    hist: Option<Box<[u64; HIST_BUCKETS]>>,
}

impl LatencyStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        LatencyStats {
            min_ns: u64::MAX,
            ..LatencyStats::default()
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        let x = ns as f64;
        self.count += 1;
        let delta = x - self.mean_ns;
        self.mean_ns += delta / self.count as f64;
        self.m2 += delta * (x - self.mean_ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist.get_or_insert_with(|| Box::new([0; HIST_BUCKETS]))[hist_bucket(ns)] += 1;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        self.mean_ns
    }

    /// Mean latency in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1_000.0
    }

    /// Population standard deviation in nanoseconds — the paper's
    /// "jitter".
    #[must_use]
    pub fn std_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_ns))
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_ns))
    }

    /// The histogram bucket counts, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self) -> Option<&[u64; HIST_BUCKETS]> {
        self.hist.as_deref()
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) from the histogram.
    ///
    /// The estimate interpolates linearly inside the sample's log2
    /// bucket and is clamped to the exact observed `[min, max]`, so it
    /// always lands in the same bucket as the true rank-`⌈q·n⌉` sample —
    /// a rank error of less than one bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        let hist = self.hist.as_deref()?;
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &n) in hist.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = hist_bucket_bounds(bucket);
                let into = rank - seen; // 1..=n
                let est = lo + (u128::from(hi - lo) * u128::from(into) / u128::from(n + 1)) as u64;
                return Some(SimDuration::from_nanos(est.clamp(self.min_ns, self.max_ns)));
            }
            seen += n;
        }
        // Unreachable when counters are consistent; fall back to max.
        Some(SimDuration::from_nanos(self.max_ns))
    }

    /// Median latency (`None` when empty).
    #[must_use]
    pub fn p50(&self) -> Option<SimDuration> {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (`None` when empty).
    #[must_use]
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency (`None` when empty).
    #[must_use]
    pub fn p999(&self) -> Option<SimDuration> {
        self.quantile(0.999)
    }

    /// Merges another stats block into this one. Histogram counts add
    /// exactly; the Welford state uses Chan's parallel update.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean_ns - self.mean_ns;
        let total = n1 + n2;
        self.mean_ns += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        if let Some(theirs) = other.hist.as_deref() {
            let ours = self.hist.get_or_insert_with(|| Box::new([0; HIST_BUCKETS]));
            for (o, t) in ours.iter_mut().zip(theirs) {
                *o += t;
            }
        }
    }
}

/// A borrowed view of one flow's record in the analyzer's SoA arenas.
///
/// Mirrors the fields the pre-SoA `FlowRecord` struct exposed, so call
/// sites read the same way (`record.received`, `record.latency.mean_us()`).
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord<'a> {
    /// The flow's class.
    pub class: TrafficClass,
    /// Frames the talker injected (within the measurement window).
    pub injected: u64,
    /// Frames the analyzer received.
    pub received: u64,
    /// Frames that arrived after their deadline (TS flows only).
    pub deadline_misses: u64,
    /// Latency statistics over received frames.
    pub latency: &'a LatencyStats,
}

impl FlowRecord<'_> {
    /// Frames injected but never delivered.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.injected.saturating_sub(self.received)
    }
}

/// The network-wide analyzer.
///
/// # Example
///
/// ```
/// use tsn_sim::analyzer::Analyzer;
/// use tsn_types::{FlowId, SimDuration, SimTime, TrafficClass};
///
/// let mut an = Analyzer::new();
/// let flow = FlowId::new(0);
/// an.note_injected(flow, TrafficClass::TimeSensitive);
/// an.note_delivered(
///     flow,
///     TrafficClass::TimeSensitive,
///     SimTime::ZERO,
///     SimTime::from_micros(130),
///     Some(SimDuration::from_millis(2)),
/// );
/// let record = an.flow(flow).expect("recorded");
/// assert_eq!(record.received, 1);
/// assert_eq!(record.lost(), 0);
/// assert_eq!(record.latency.mean_us(), 130.0);
/// ```
#[derive(Default, Clone)]
pub struct Analyzer {
    // Dense FlowId-indexed SoA arenas. `class[i]` doubles as the
    // "tracked" marker: None slots are untouched holes (flow ids are
    // near-dense, so holes are cheap).
    class: Vec<Option<TrafficClass>>,
    injected: Vec<u64>,
    received: Vec<u64>,
    misses: Vec<u64>,
    latency: Vec<LatencyStats>,
    tracked: usize,
}

impl Analyzer {
    /// Creates an empty analyzer.
    #[must_use]
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// An empty analyzer with arenas pre-sized for `flows` near-dense
    /// flow ids, so steady-state recording never reallocates. Equality
    /// and `Debug` iterate tracked slots only, so pre-sizing is
    /// invisible to report comparisons.
    #[must_use]
    pub fn with_flow_capacity(flows: usize) -> Self {
        Analyzer {
            class: vec![None; flows],
            injected: vec![0; flows],
            received: vec![0; flows],
            misses: vec![0; flows],
            latency: vec![LatencyStats::new(); flows],
            tracked: 0,
        }
    }

    /// Ensures the arenas cover `flow` and the slot is marked tracked;
    /// returns the slot index.
    fn touch(&mut self, flow: FlowId, class: TrafficClass) -> usize {
        let idx = flow.as_usize();
        if idx >= self.class.len() {
            self.class.resize(idx + 1, None);
            self.injected.resize(idx + 1, 0);
            self.received.resize(idx + 1, 0);
            self.misses.resize(idx + 1, 0);
            self.latency.resize(idx + 1, LatencyStats::new());
        }
        if self.class[idx].is_none() {
            self.class[idx] = Some(class);
            self.tracked += 1;
        }
        idx
    }

    /// Notes that the talker injected one frame of `flow`.
    pub fn note_injected(&mut self, flow: FlowId, class: TrafficClass) {
        let idx = self.touch(flow, class);
        self.injected[idx] += 1;
    }

    /// Notes a delivered frame: latency is `arrived − injected_at`;
    /// `deadline` (if any) is checked for a miss.
    pub fn note_delivered(
        &mut self,
        flow: FlowId,
        class: TrafficClass,
        injected_at: SimTime,
        arrived: SimTime,
        deadline: Option<SimDuration>,
    ) {
        let idx = self.touch(flow, class);
        self.received[idx] += 1;
        let latency = arrived.saturating_since(injected_at);
        self.latency[idx].record(latency);
        if let Some(deadline) = deadline {
            if latency > deadline {
                self.misses[idx] += 1;
            }
        }
    }

    /// One flow's record.
    #[must_use]
    pub fn flow(&self, flow: FlowId) -> Option<FlowRecord<'_>> {
        let idx = flow.as_usize();
        let class = (*self.class.get(idx)?)?;
        Some(FlowRecord {
            class,
            injected: self.injected[idx],
            received: self.received[idx],
            deadline_misses: self.misses[idx],
            latency: &self.latency[idx],
        })
    }

    /// Iterates over all flow records, in ascending flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, FlowRecord<'_>)> {
        self.class.iter().enumerate().filter_map(|(idx, class)| {
            class.map(|class| {
                (
                    FlowId::new(idx as u32),
                    FlowRecord {
                        class,
                        injected: self.injected[idx],
                        received: self.received[idx],
                        deadline_misses: self.misses[idx],
                        latency: &self.latency[idx],
                    },
                )
            })
        })
    }

    fn records_of(&self, class: TrafficClass) -> impl Iterator<Item = FlowRecord<'_>> {
        self.iter()
            .map(|(_, r)| r)
            .filter(move |r| r.class == class)
    }

    /// Aggregated latency statistics over every flow of `class`.
    #[must_use]
    pub fn class_latency(&self, class: TrafficClass) -> LatencyStats {
        let mut agg = LatencyStats::new();
        for record in self.records_of(class) {
            agg.merge(record.latency);
        }
        agg
    }

    /// Mean of the per-flow latency standard deviations over `class` —
    /// the paper's "jitter" (each flow's own latency spread, not the
    /// spread between flows with different hop counts).
    #[must_use]
    pub fn class_mean_flow_jitter_ns(&self, class: TrafficClass) -> f64 {
        let (mut sum, mut n) = (0.0f64, 0u64);
        for record in self.records_of(class) {
            if record.latency.count() > 0 {
                sum += record.latency.std_ns();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Total frames lost across flows of `class`.
    #[must_use]
    pub fn class_lost(&self, class: TrafficClass) -> u64 {
        self.records_of(class).map(|r| r.lost()).sum()
    }

    /// Total frames injected across flows of `class`.
    #[must_use]
    pub fn class_injected(&self, class: TrafficClass) -> u64 {
        self.records_of(class).map(|r| r.injected).sum()
    }

    /// Total deadline misses across TS flows.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Number of tracked flows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.tracked
    }
}

// Manual impls: trailing untouched arena slots are representation, not
// state — analyzers that tracked the same flows must compare (and print)
// identically regardless of how far their arenas grew.
impl PartialEq for Analyzer {
    fn eq(&self, other: &Self) -> bool {
        if self.tracked != other.tracked {
            return false;
        }
        self.iter().zip(other.iter()).all(|((ida, a), (idb, b))| {
            ida == idb
                && a.class == b.class
                && a.injected == b.injected
                && a.received == b.received
                && a.deadline_misses == b.deadline_misses
                && a.latency == b.latency
        })
    }
}

impl core::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let samples = [100u64, 200, 300, 400];
        let mut s = LatencyStats::new();
        for &x in &samples {
            s.record(SimDuration::from_nanos(x));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean_ns(), 250.0);
        // Population std of {100,200,300,400} = sqrt(12500) ≈ 111.8.
        assert!((s.std_ns() - 12_500f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.min(), Some(SimDuration::from_nanos(100)));
        assert_eq!(s.max(), Some(SimDuration::from_nanos(400)));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.std_ns(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p99(), None);
        assert!(s.histogram().is_none());
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<u64> = (1..=10).map(|i| i * 37).collect();
        let mut whole = LatencyStats::new();
        for &x in &xs {
            whole.record(SimDuration::from_nanos(x));
        }
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        for &x in &xs[..4] {
            a.record(SimDuration::from_nanos(x));
        }
        for &x in &xs[4..] {
            b.record(SimDuration::from_nanos(x));
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean_ns() - whole.mean_ns()).abs() < 1e-9);
        assert!((a.std_ns() - whole.std_ns()).abs() < 1e-9);
        // Histogram merge is exact, not merely close.
        assert_eq!(a.histogram(), whole.histogram());

        // Merging into empty adopts the other side.
        let mut empty = LatencyStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        assert_eq!(empty, whole);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(2), 1);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(4), 2);
        assert_eq!(hist_bucket(1023), 9);
        assert_eq!(hist_bucket(1024), 10);
        assert_eq!(hist_bucket(u64::MAX), 63);
        assert_eq!(hist_bucket_bounds(0), (0, 1));
        assert_eq!(hist_bucket_bounds(10), (1024, 2047));
        assert_eq!(hist_bucket_bounds(63).1, u64::MAX);
        for ns in [0u64, 1, 2, 513, 1 << 40, u64::MAX] {
            let (lo, hi) = hist_bucket_bounds(hist_bucket(ns));
            assert!(lo <= ns && ns <= hi, "{ns} outside its bucket");
        }
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut s = LatencyStats::new();
        let mut samples: Vec<u64> = (0..1000u64).map(|i| 100 + i * 97).collect();
        for &x in &samples {
            s.record(SimDuration::from_nanos(x));
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = s.quantile(q).expect("non-empty").as_nanos();
            assert_eq!(
                hist_bucket(est),
                hist_bucket(exact),
                "q={q}: est {est} vs exact {exact}"
            );
        }
        // Single-sample stats answer every quantile with that sample.
        let mut one = LatencyStats::new();
        one.record(SimDuration::from_nanos(777));
        assert_eq!(one.p50(), Some(SimDuration::from_nanos(777)));
        assert_eq!(one.p999(), Some(SimDuration::from_nanos(777)));
    }

    #[test]
    fn loss_is_injected_minus_received() {
        let mut an = Analyzer::new();
        let f = FlowId::new(3);
        for _ in 0..5 {
            an.note_injected(f, TrafficClass::TimeSensitive);
        }
        for i in 0..3 {
            an.note_delivered(
                f,
                TrafficClass::TimeSensitive,
                SimTime::from_micros(i * 10),
                SimTime::from_micros(i * 10 + 100),
                None,
            );
        }
        let r = an.flow(f).expect("tracked");
        assert_eq!(r.lost(), 2);
        assert_eq!(an.class_lost(TrafficClass::TimeSensitive), 2);
        assert_eq!(an.class_injected(TrafficClass::TimeSensitive), 5);
    }

    #[test]
    fn deadline_misses_are_counted() {
        let mut an = Analyzer::new();
        let f = FlowId::new(1);
        an.note_delivered(
            f,
            TrafficClass::TimeSensitive,
            SimTime::ZERO,
            SimTime::from_millis(3),
            Some(SimDuration::from_millis(2)),
        );
        an.note_delivered(
            f,
            TrafficClass::TimeSensitive,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Some(SimDuration::from_millis(2)),
        );
        assert_eq!(an.deadline_misses(), 1);
    }

    #[test]
    fn per_flow_jitter_ignores_between_flow_spread() {
        let mut an = Analyzer::new();
        // Two flows with constant but different latencies: each flow's
        // own jitter is zero, even though the merged spread is not.
        for (flow, us) in [(0u32, 100u64), (1, 900)] {
            for i in 0..4 {
                an.note_delivered(
                    FlowId::new(flow),
                    TrafficClass::TimeSensitive,
                    SimTime::from_micros(i * 50),
                    SimTime::from_micros(i * 50 + us),
                    None,
                );
            }
        }
        assert_eq!(
            an.class_mean_flow_jitter_ns(TrafficClass::TimeSensitive),
            0.0
        );
        assert!(an.class_latency(TrafficClass::TimeSensitive).std_ns() > 0.0);
        assert_eq!(an.class_mean_flow_jitter_ns(TrafficClass::BestEffort), 0.0);
    }

    #[test]
    fn class_aggregation_spans_flows() {
        let mut an = Analyzer::new();
        for id in 0..3u32 {
            an.note_delivered(
                FlowId::new(id),
                TrafficClass::TimeSensitive,
                SimTime::ZERO,
                SimTime::from_micros(100 * u64::from(id + 1)),
                None,
            );
        }
        an.note_delivered(
            FlowId::new(9),
            TrafficClass::BestEffort,
            SimTime::ZERO,
            SimTime::from_micros(999),
            None,
        );
        let ts = an.class_latency(TrafficClass::TimeSensitive);
        assert_eq!(ts.count(), 3);
        assert_eq!(ts.mean_us(), 200.0);
        assert_eq!(an.class_latency(TrafficClass::BestEffort).count(), 1);
        assert_eq!(an.flow_count(), 4);
    }

    #[test]
    fn equality_compares_tracked_state_not_arenas() {
        let mut a = Analyzer::new();
        a.note_injected(FlowId::new(2), TrafficClass::TimeSensitive);
        let mut b = Analyzer::with_flow_capacity(16);
        b.note_injected(FlowId::new(2), TrafficClass::TimeSensitive);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.note_injected(FlowId::new(2), TrafficClass::TimeSensitive);
        assert_ne!(a, b);
        // Different id, same counters: still unequal.
        let mut c = Analyzer::new();
        c.note_injected(FlowId::new(3), TrafficClass::TimeSensitive);
        assert_ne!(a, c);
    }
}
