//! The **Time Sync** template: simulated gPTP (IEEE 802.1AS).
//!
//! "The gPTP protocol is selected to implement the *Time Sync* template. It
//! includes three submodules: collection of clock time, calculation of
//! correction time and clock correction." (Section III.C) The paper's FPGA
//! prototype reaches < 50 ns precision; Gate Ctrl consumes the corrected
//! time to drive the GCLs.
//!
//! The model: every node owns a free-running oscillator with a fixed
//! frequency error (ppm) and an initial phase offset. A grandmaster
//! periodically emits Sync/Follow_Up; each slave timestamps the arrival
//! with bounded PHY timestamp noise, measures the link delay with a
//! peer-delay exchange, and runs a piecewise-linear servo: each sync steps
//! the offset and re-estimates the master/local rate ratio from
//! consecutive sync arrivals. Between syncs the residual error is the rate
//! estimation error times the sync interval — exactly the regime real gPTP
//! hardware operates in.

use tsn_types::rng::SplitMix64;
use tsn_types::{SimDuration, SimTime, TsnError, TsnResult};

/// Deterministic xorshift PRNG for timestamp noise (keeps the template
/// self-contained and reproducible without external dependencies).
#[derive(Debug, Clone, PartialEq, Eq)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [-1, 1].
    fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// Fractional bits of the fixed-point clock representation: drift is kept
/// as 2^-63 ns per ns, so a sub-ns drift product stays exact out to any
/// representable [`SimTime`] (at `t = 10^15 ns` the quantization error is
/// `10^15 / 2^63 ≈ 10^-4 ns`, versus the 0.125 ns ulp of an f64 there).
const CLOCK_FP_SHIFT: u32 = 63;

/// A free-running local oscillator: frequency error in parts-per-million
/// plus an initial phase offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockModel {
    drift_ppm: f64,
    initial_offset_ns: f64,
    /// Drift as fixed-point ns-per-ns (`2^-63` units); derived from
    /// `drift_ppm` at construction so integer clock reads never round
    /// through a 53-bit mantissa.
    drift_fp: i128,
    /// Initial offset in `2^-63` ns units.
    offset_fp: i128,
}

impl ClockModel {
    /// Creates a clock with the given frequency error and initial offset.
    /// Crystal oscillators are typically within ±100 ppm.
    #[must_use]
    pub fn new(drift_ppm: f64, initial_offset_ns: f64) -> Self {
        let scale = (1u128 << CLOCK_FP_SHIFT) as f64;
        ClockModel {
            drift_ppm,
            initial_offset_ns,
            drift_fp: ((drift_ppm * 1e-6) * scale).round() as i128,
            offset_fp: (initial_offset_ns * scale).round() as i128,
        }
    }

    /// A perfect clock (the grandmaster reference).
    #[must_use]
    pub fn perfect() -> Self {
        ClockModel::new(0.0, 0.0)
    }

    /// The raw (uncorrected) local reading at true time `t`.
    ///
    /// This is the f64 form the gPTP servo consumes; over the bounded
    /// spans a servo differences (sync intervals, not absolute epochs)
    /// its rounding is harmless. Absolute reads at large `t` should use
    /// [`ClockModel::now`] / [`ClockModel::raw_offset_ns`], which evaluate
    /// in integer fixed-point.
    #[must_use]
    pub fn raw_ns(&self, t: SimTime) -> f64 {
        t.as_nanos() as f64 * (1.0 + self.drift_ppm * 1e-6) + self.initial_offset_ns
    }

    /// The raw clock's exact offset from true time at `t`, in `2^-63` ns
    /// fixed-point units: `t·drift + initial_offset`, evaluated in i128 so
    /// sub-ns drift products survive at any simulated epoch.
    #[must_use]
    pub fn offset_fp(&self, t: SimTime) -> i128 {
        i128::from(t.as_nanos()) * self.drift_fp + self.offset_fp
    }

    /// The raw clock's offset from true time at `t`, in ns. Exact to the
    /// fixed-point quantum (≈ `t / 2^63` ns), unlike the f64 evaluation
    /// in [`ClockModel::raw_ns`] whose 53-bit mantissa quantizes sub-ns
    /// offsets to 0.125 ns steps by `t = 10^15 ns`.
    #[must_use]
    pub fn raw_offset_ns(&self, t: SimTime) -> f64 {
        self.offset_fp(t) as f64 / (1u128 << CLOCK_FP_SHIFT) as f64
    }

    /// The raw local reading at true time `t` as an integer [`SimTime`]
    /// (floor of the exact fixed-point value, clamped at zero).
    #[must_use]
    pub fn now(&self, t: SimTime) -> SimTime {
        // Arithmetic shift right floors negative offsets correctly.
        let offset_ns = self.offset_fp(t) >> CLOCK_FP_SHIFT;
        let raw = i128::from(t.as_nanos()) + offset_ns;
        SimTime::from_nanos(u64::try_from(raw.max(0)).unwrap_or(u64::MAX))
    }

    /// Frequency error in ppm.
    #[must_use]
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }
}

/// Configuration of the sync protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncConfig {
    /// Interval between Sync messages (gPTP default is 125 ms; industrial
    /// profiles often use 31.25 ms).
    pub sync_interval: SimDuration,
    /// 1-sigma-ish bound of PHY timestamping noise, in ns (uniform in
    /// ±bound). FPGA MAC timestampers are typically within ±8 ns.
    pub timestamp_noise_ns: f64,
}

/// Hashes the noise bound by its bits: a digest input, not a set key.
impl std::hash::Hash for SyncConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sync_interval.hash(state);
        self.timestamp_noise_ns.to_bits().hash(state);
    }
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            sync_interval: SimDuration::from_millis(125),
            timestamp_noise_ns: 8.0,
        }
    }
}

/// One node's Time Sync instance: local clock + gPTP slave servo.
///
/// # Example
///
/// ```
/// use tsn_switch::time_sync::{ClockModel, SyncConfig, TimeSync};
/// use tsn_types::{SimDuration, SimTime};
///
/// let mut slave = TimeSync::new(ClockModel::new(40.0, 1_500_000.0), SyncConfig::default(), 7);
/// let delay = SimDuration::from_nanos(50);
/// slave.measure_pdelay(delay);
/// // Two sync rounds: offset step + rate acquisition.
/// for k in 0..2u64 {
///     let send = SimTime::from_millis(125 * k);
///     slave.process_sync(send.as_nanos() as f64, send + delay);
/// }
/// let err = slave.error_ns(SimTime::from_millis(300));
/// assert!(err.abs() < 100.0, "converged to within 100 ns, got {err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSync {
    clock: ClockModel,
    config: SyncConfig,
    rng: XorShift64,
    /// Estimated one-way link delay to the master, ns.
    link_delay_ns: f64,
    /// Servo state: corrected(raw) = base_corrected + (raw − base_raw) × rate.
    base_raw: f64,
    base_corrected: f64,
    rate_ratio: f64,
    /// Recent sync observations `(master t1, local raw t2)`; the rate is
    /// estimated over the whole window, which divides timestamp-noise
    /// error by the window span.
    history: std::collections::VecDeque<(f64, f64)>,
    sync_count: u64,
}

/// Sync observations kept for rate estimation.
const RATE_WINDOW: usize = 8;

impl TimeSync {
    /// Creates an unsynchronized node. `seed` makes its timestamp noise
    /// reproducible.
    #[must_use]
    pub fn new(clock: ClockModel, config: SyncConfig, seed: u64) -> Self {
        // Before any sync, "corrected" time is just the raw clock.
        TimeSync {
            clock,
            config,
            rng: XorShift64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            link_delay_ns: 0.0,
            base_raw: 0.0,
            base_corrected: 0.0,
            rate_ratio: 1.0,
            history: std::collections::VecDeque::with_capacity(RATE_WINDOW),
            sync_count: 0,
        }
    }

    fn noise(&mut self) -> f64 {
        self.rng.next_signed_unit() * self.config.timestamp_noise_ns
    }

    /// The raw local clock reading at true time `t`.
    #[must_use]
    pub fn raw_ns(&self, t: SimTime) -> f64 {
        self.clock.raw_ns(t)
    }

    /// The servo-corrected local time at true time `t`, in ns.
    #[must_use]
    pub fn corrected_ns(&self, t: SimTime) -> f64 {
        let raw = self.clock.raw_ns(t);
        if self.sync_count == 0 {
            return raw;
        }
        self.base_corrected + (raw - self.base_raw) * self.rate_ratio
    }

    /// The corrected time as a [`SimTime`] (clamped at zero).
    #[must_use]
    pub fn now(&self, t: SimTime) -> SimTime {
        SimTime::from_nanos(self.corrected_ns(t).max(0.0) as u64)
    }

    /// Synchronization error: corrected time minus true time, ns.
    #[must_use]
    pub fn error_ns(&self, t: SimTime) -> f64 {
        self.corrected_ns(t) - t.as_nanos() as f64
    }

    /// Runs one peer-delay measurement over a link with true one-way
    /// delay `true_delay`. Four timestamps, each with PHY noise, so the
    /// estimate carries a small bounded error.
    pub fn measure_pdelay(&mut self, true_delay: SimDuration) {
        let d = true_delay.as_nanos() as f64;
        // (t4 − t1 − turnaround) / 2 with noise on each timestamp.
        let t1 = self.noise();
        let t2 = d + self.noise();
        let t3 = d + self.noise(); // immediate turnaround in the model
        let t4 = 2.0 * d + self.noise();
        self.link_delay_ns = ((t4 - t1) - (t3 - t2)) / 2.0;
    }

    /// Processes one Sync/Follow_Up: the master's timestamp
    /// `master_send_ns` (its corrected time at transmission) and the true
    /// arrival instant at this node.
    ///
    /// Steps the offset so the corrected clock reads
    /// `master_send + link_delay` at the arrival, and re-estimates the
    /// rate ratio from consecutive syncs.
    pub fn process_sync(&mut self, master_send_ns: f64, true_arrival: SimTime) {
        let t2_raw = self.clock.raw_ns(true_arrival) + self.noise();
        let master_at_arrival = master_send_ns + self.link_delay_ns;

        if let Some(&(old_t1, old_t2_raw)) = self.history.front() {
            let d_master = master_send_ns - old_t1;
            let d_local = t2_raw - old_t2_raw;
            if d_local > 0.0 && d_master > 0.0 {
                self.rate_ratio = d_master / d_local;
            }
        }
        self.base_raw = t2_raw;
        self.base_corrected = master_at_arrival;
        if self.history.len() == RATE_WINDOW {
            self.history.pop_front();
        }
        self.history.push_back((master_send_ns, t2_raw));
        self.sync_count += 1;
    }

    /// Number of sync messages processed.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.sync_count
    }

    /// Estimated link delay to the master, ns.
    #[must_use]
    pub fn link_delay_ns(&self) -> f64 {
        self.link_delay_ns
    }

    /// Estimated master/local rate ratio.
    #[must_use]
    pub fn rate_ratio(&self) -> f64 {
        self.rate_ratio
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> SyncConfig {
        self.config
    }
}

/// Fault perturbation applied to a sync domain (driven by the simulator's
/// fault-injection layer): Sync messages can be lost — the affected hop
/// and everything downstream of it *hold over* on their last servo state
/// for that round — and relayed timestamps can carry extra jitter, the
/// path-delay-variation regime of software/virtualized TSN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncFaultProfile {
    /// Probability that a Sync/Follow_Up dies on any one hop's wire.
    pub message_loss_prob: f64,
    /// Extra uniform ±jitter (ns) on each hop's relayed master timestamp.
    pub extra_jitter_ns: f64,
}

impl SyncFaultProfile {
    /// `true` when the profile perturbs nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.message_loss_prob <= 0.0 && self.extra_jitter_ns <= 0.0
    }
}

/// Runtime state of an active [`SyncFaultProfile`] on a domain.
#[derive(Debug, Clone)]
struct SyncFaultState {
    profile: SyncFaultProfile,
    rng: SplitMix64,
    syncs_lost: u64,
    offset_high_water_ns: f64,
}

/// A synchronization domain: a grandmaster plus a chain of slaves, each
/// syncing to its upstream neighbour (the topology of the paper's ring and
/// linear testbeds).
///
/// Calling [`SyncDomain::run_until`] advances the domain through all sync
/// rounds up to a given true time, propagating time hop by hop the way
/// 802.1AS does.
#[derive(Debug, Clone)]
pub struct SyncDomain {
    nodes: Vec<TimeSync>,
    link_delay: SimDuration,
    next_sync: SimTime,
    config: SyncConfig,
    /// Fault perturbation; `None` leaves the healthy path untouched (no
    /// extra PRNG draws, bit-identical trajectories).
    faults: Option<SyncFaultState>,
}

impl SyncDomain {
    /// Builds a chain of `clocks.len()` slaves behind a perfect
    /// grandmaster, all links having `link_delay`.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidParameter`] if `clocks` is empty.
    pub fn chain(
        clocks: Vec<ClockModel>,
        config: SyncConfig,
        link_delay: SimDuration,
    ) -> TsnResult<Self> {
        if clocks.is_empty() {
            return Err(TsnError::invalid_parameter(
                "clocks",
                "a sync domain needs at least one slave",
            ));
        }
        let nodes = clocks
            .into_iter()
            .enumerate()
            .map(|(i, clock)| {
                let mut node = TimeSync::new(clock, config, i as u64 + 1);
                node.measure_pdelay(link_delay);
                node
            })
            .collect();
        Ok(SyncDomain {
            nodes,
            link_delay,
            next_sync: SimTime::ZERO,
            config,
            faults: None,
        })
    }

    /// Arms fault perturbation on the domain: every subsequent sync round
    /// draws losses/jitter from a [`SplitMix64`] stream seeded with
    /// `seed`, so perturbed runs stay deterministic.
    pub fn set_faults(&mut self, profile: SyncFaultProfile, seed: u64) {
        self.faults = if profile.is_none() {
            None
        } else {
            Some(SyncFaultState {
                profile,
                rng: SplitMix64::seed_from_u64(seed),
                syncs_lost: 0,
                offset_high_water_ns: 0.0,
            })
        };
    }

    /// Sync receptions that never happened because the message was lost
    /// (each affected hop counts once per round).
    #[must_use]
    pub fn syncs_lost(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.syncs_lost)
    }

    /// Largest absolute offset observed at any sync-round boundary (the
    /// instant errors peak: just before the correction). Only tracked
    /// while faults are armed; 0 otherwise.
    #[must_use]
    pub fn offset_high_water_ns(&self) -> f64 {
        self.faults.as_ref().map_or(0.0, |f| f.offset_high_water_ns)
    }

    /// Runs all pending sync rounds with send times `<= until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.next_sync <= until {
            self.sync_round(self.next_sync);
            self.next_sync += self.config.sync_interval;
        }
    }

    fn sync_round(&mut self, gm_send: SimTime) {
        if self.faults.is_some() {
            // Errors peak right before the correction lands: sample the
            // high-water mark here.
            let worst = self.max_abs_error_ns(gm_send);
            if let Some(f) = self.faults.as_mut() {
                f.offset_high_water_ns = f.offset_high_water_ns.max(worst);
            }
        }
        // The grandmaster's clock is the time scale itself.
        let mut upstream_time = gm_send.as_nanos() as f64;
        let mut true_send = gm_send;
        let chain_len = self.nodes.len();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let true_arrival = true_send + self.link_delay;
            let mut relayed = upstream_time;
            if let Some(f) = self.faults.as_mut() {
                if f.profile.message_loss_prob > 0.0
                    && f.rng.next_f64() < f.profile.message_loss_prob
                {
                    // The Sync dies on this hop's wire: this node and every
                    // node further down the chain hold over this round on
                    // their last servo state.
                    f.syncs_lost += (chain_len - idx) as u64;
                    return;
                }
                if f.profile.extra_jitter_ns > 0.0 {
                    relayed += (f.rng.next_f64() * 2.0 - 1.0) * f.profile.extra_jitter_ns;
                }
            }
            node.process_sync(relayed, true_arrival);
            // This node relays sync downstream: it re-stamps with its own
            // corrected clock (the 802.1AS end-to-end transparent path
            // accumulates residence time; the model forwards immediately).
            upstream_time = node.corrected_ns(true_arrival);
            true_send = true_arrival;
        }
    }

    /// The slaves, grandmaster-adjacent first.
    #[must_use]
    pub fn nodes(&self) -> &[TimeSync] {
        &self.nodes
    }

    /// The largest absolute sync error across the domain at true time
    /// `t`, in ns.
    #[must_use]
    pub fn max_abs_error_ns(&self, t: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.error_ns(t).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drifty(i: u64) -> ClockModel {
        // Alternating-sign drifts up to 80 ppm, ms-scale initial offsets.
        let sign = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
        ClockModel::new(
            sign * (20.0 + 10.0 * i as f64),
            sign * 500_000.0 * (i as f64 + 1.0),
        )
    }

    #[test]
    fn unsynchronized_clock_is_wildly_off() {
        let node = TimeSync::new(drifty(0), SyncConfig::default(), 1);
        assert!(node.error_ns(SimTime::from_millis(100)).abs() > 100_000.0);
    }

    #[test]
    fn single_slave_converges_below_50ns() {
        let config = SyncConfig {
            sync_interval: SimDuration::from_millis(125),
            timestamp_noise_ns: 8.0,
        };
        let mut node = TimeSync::new(drifty(0), config, 42);
        node.measure_pdelay(SimDuration::from_nanos(50));
        let mut t = SimTime::ZERO;
        for _ in 0..8 {
            node.process_sync(t.as_nanos() as f64, t + SimDuration::from_nanos(50));
            t += config.sync_interval;
        }
        // Probe the worst case: just before the next sync.
        let probe = t + config.sync_interval - SimDuration::from_nanos(1);
        let err = node.error_ns(probe).abs();
        assert!(
            err < 50.0,
            "paper-level precision (<50 ns), got {err:.1} ns"
        );
    }

    #[test]
    fn rate_ratio_tracks_the_true_drift() {
        let config = SyncConfig {
            sync_interval: SimDuration::from_millis(125),
            timestamp_noise_ns: 0.0,
        };
        let mut node = TimeSync::new(ClockModel::new(50.0, 0.0), config, 3);
        node.measure_pdelay(SimDuration::from_nanos(50));
        for k in 0..3u64 {
            let t = SimTime::from_millis(125 * k);
            node.process_sync(t.as_nanos() as f64, t + SimDuration::from_nanos(50));
        }
        // True ratio = 1 / (1 + 50 ppm) ≈ 0.99995.
        assert!((node.rate_ratio() - 1.0 / 1.000_05).abs() < 1e-9);
    }

    #[test]
    fn pdelay_estimate_is_close_to_truth() {
        let mut node = TimeSync::new(ClockModel::perfect(), SyncConfig::default(), 5);
        node.measure_pdelay(SimDuration::from_nanos(50));
        assert!((node.link_delay_ns() - 50.0).abs() < 20.0);
    }

    #[test]
    fn noise_free_sync_is_essentially_exact() {
        let config = SyncConfig {
            sync_interval: SimDuration::from_millis(125),
            timestamp_noise_ns: 0.0,
        };
        let mut node = TimeSync::new(drifty(1), config, 9);
        node.measure_pdelay(SimDuration::from_nanos(50));
        for k in 0..4u64 {
            let t = SimTime::from_millis(125 * k);
            node.process_sync(t.as_nanos() as f64, t + SimDuration::from_nanos(50));
        }
        let probe = SimTime::from_millis(560);
        assert!(node.error_ns(probe).abs() < 1.0);
    }

    #[test]
    fn six_hop_chain_stays_under_the_paper_bound() {
        // The paper's ring: 6 switches. Per-hop noise accumulates; the
        // prototype claims < 50 ns, we allow the same budget per domain.
        let config = SyncConfig {
            sync_interval: SimDuration::from_millis(31),
            timestamp_noise_ns: 4.0,
        };
        let clocks: Vec<ClockModel> = (0..6).map(drifty).collect();
        let mut domain =
            SyncDomain::chain(clocks, config, SimDuration::from_nanos(50)).expect("valid domain");
        domain.run_until(SimTime::from_millis(1000));
        let worst = domain.max_abs_error_ns(SimTime::from_millis(1000));
        assert!(
            worst < 50.0,
            "6-hop domain precision should be < 50 ns, got {worst:.1} ns"
        );
    }

    #[test]
    fn fixed_point_clock_is_exact_at_large_sim_times() {
        // drift = 2^-10 ppm (exactly representable): the true offset at
        // t = 10^15 ns is 10^9 / 2^10 = 976562.5 ns. An f64 at that
        // magnitude has a 0.125 ns ulp; the fixed-point path must keep
        // the .5 fraction and floor the integer read deterministically.
        let clock = ClockModel::new(0.000_976_562_5, 0.0);
        let t = SimTime::from_nanos(1_000_000_000_000_000);
        assert!((clock.raw_offset_ns(t) - 976_562.5).abs() < 1e-3);
        assert_eq!(
            clock.now(t),
            SimTime::from_nanos(1_000_000_000_976_562),
            "integer read floors the exact fixed-point value"
        );
    }

    #[test]
    fn fixed_point_clock_keeps_sub_ns_drift_products() {
        // A 1.03e-9 ppm drift accumulates 1.03 ns over 10^15 ns. The f64
        // evaluation quantizes the result to a multiple of 0.125 ns
        // (1.0 or 1.125 — ≥ 0.03 ns of error); fixed-point keeps it.
        let drift_ppm = 1.03e-9;
        let clock = ClockModel::new(drift_ppm, 0.0);
        let t = SimTime::from_nanos(1_000_000_000_000_000);
        let f64_style = t.as_nanos() as f64 * (1.0 + drift_ppm * 1e-6) - t.as_nanos() as f64;
        assert!(
            (f64_style - 1.03).abs() > 0.02,
            "f64 math quantizes the sub-ns product (got {f64_style})"
        );
        assert!((clock.raw_offset_ns(t) - 1.03).abs() < 1e-4);
    }

    #[test]
    fn fixed_point_clock_handles_negative_drift_and_offset() {
        let clock = ClockModel::new(-40.0, -1_000.5);
        let t = SimTime::from_nanos(1_000_000_000); // 1 s
                                                    // Offset: -40e-6 * 1e9 - 1000.5 = -41_000.5 ns.
        assert!((clock.raw_offset_ns(t) - (-41_000.5)).abs() < 1e-6);
        assert_eq!(clock.now(t), SimTime::from_nanos(1_000_000_000 - 41_001));
        // Clamped at zero near the epoch.
        assert_eq!(clock.now(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn sync_loss_triggers_holdover_and_high_water_tracking() {
        let config = SyncConfig {
            sync_interval: SimDuration::from_millis(31),
            timestamp_noise_ns: 4.0,
        };
        let clocks: Vec<ClockModel> = (0..6).map(drifty).collect();
        let mut healthy =
            SyncDomain::chain(clocks.clone(), config, SimDuration::from_nanos(50)).expect("valid");
        let mut lossy =
            SyncDomain::chain(clocks, config, SimDuration::from_nanos(50)).expect("valid");
        lossy.set_faults(
            SyncFaultProfile {
                message_loss_prob: 0.5,
                extra_jitter_ns: 0.0,
            },
            7,
        );
        let end = SimTime::from_millis(2000);
        healthy.run_until(end);
        lossy.run_until(end);
        assert!(lossy.syncs_lost() > 0, "losses actually happened");
        assert!(
            lossy.offset_high_water_ns() > healthy.max_abs_error_ns(end),
            "holdover degrades precision: high-water {} vs healthy {}",
            lossy.offset_high_water_ns(),
            healthy.max_abs_error_ns(end)
        );
        // Holdover keeps running on the servo's last state — corrected
        // time still advances, it just drifts.
        assert!(lossy.max_abs_error_ns(end) < 1_000_000.0);
    }

    #[test]
    fn faulted_domains_are_deterministic_per_seed() {
        let config = SyncConfig::default();
        let profile = SyncFaultProfile {
            message_loss_prob: 0.3,
            extra_jitter_ns: 100.0,
        };
        let mk = |seed| {
            let clocks: Vec<ClockModel> = (0..4).map(drifty).collect();
            let mut d =
                SyncDomain::chain(clocks, config, SimDuration::from_nanos(50)).expect("valid");
            d.set_faults(profile, seed);
            d.run_until(SimTime::from_millis(3000));
            (
                d.syncs_lost(),
                d.offset_high_water_ns().to_bits(),
                d.max_abs_error_ns(SimTime::from_millis(3000)).to_bits(),
            )
        };
        assert_eq!(mk(9), mk(9), "same seed, same trajectory");
        assert_ne!(mk(9).0, mk(10).0, "different seeds diverge");
    }

    #[test]
    fn empty_fault_profile_disarms_tracking() {
        let mut d = SyncDomain::chain(
            vec![drifty(0)],
            SyncConfig::default(),
            SimDuration::from_nanos(50),
        )
        .expect("valid");
        d.set_faults(
            SyncFaultProfile {
                message_loss_prob: 0.0,
                extra_jitter_ns: 0.0,
            },
            1,
        );
        d.run_until(SimTime::from_millis(500));
        assert_eq!(d.syncs_lost(), 0);
        assert_eq!(d.offset_high_water_ns(), 0.0);
    }

    #[test]
    fn domain_requires_at_least_one_slave() {
        assert!(
            SyncDomain::chain(vec![], SyncConfig::default(), SimDuration::from_nanos(50)).is_err()
        );
    }

    #[test]
    fn corrected_time_is_monotonic_across_a_sync_step() {
        let config = SyncConfig::default();
        let mut node = TimeSync::new(drifty(2), config, 11);
        node.measure_pdelay(SimDuration::from_nanos(50));
        let mut last = 0.0f64;
        let mut ok = true;
        for k in 0..6u64 {
            let t = SimTime::from_millis(125 * k);
            node.process_sync(t.as_nanos() as f64, t + SimDuration::from_nanos(50));
            for probe_ms in 0..12 {
                let probe = t + SimDuration::from_millis(probe_ms * 10);
                let c = node.corrected_ns(probe);
                if c < last {
                    ok = false;
                }
                last = c;
            }
        }
        // After the first correction the servo only steps by sub-us
        // amounts; time should not run backwards at ms probing granularity.
        assert!(ok, "corrected time went backwards at ms granularity");
    }
}
