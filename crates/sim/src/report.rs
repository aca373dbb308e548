//! Simulation results.

use crate::analyzer::{Analyzer, LatencyStats};
use crate::fault::FlowDegradation;
use core::fmt;
use tsn_switch::SwitchStats;
pub use tsn_topology::RouteCacheStats;
use tsn_types::{FlowId, NodeId, PortId, SimTime, TrafficClass};

/// Event-core instrumentation: where the discrete-event loop spent its
/// run. Cheap counters only — bumping them is a handful of integer adds
/// per event, so they stay on in every build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventStats {
    /// `FrameArrive` events handled.
    pub frame_arrives: u64,
    /// `Kick` events handled on switch ports.
    pub port_kicks: u64,
    /// `Kick` events handled on host NICs.
    pub host_kicks: u64,
    /// `Inject` events handled.
    pub injects: u64,
    /// `TxComplete` events handled.
    pub tx_completes: u64,
    /// Kicks that were *not* scheduled because the port was provably
    /// going to be woken anyway (busy wire with a pending completion, or
    /// an idle port with nothing buffered).
    pub kicks_suppressed: u64,
    /// 802.3br preemption attempts (successful or not).
    pub preempt_attempts: u64,
    /// Fault-injection `LinkDown`/`LinkUp` events handled (0 in healthy
    /// runs).
    pub link_transitions: u64,
    /// Most events simultaneously pending in the scheduler.
    pub queue_high_water: usize,
    /// Route-cache effectiveness during flow installation. Every build
    /// of the same topology and flows routes the same way, so it counts
    /// the same in every run of a scenario.
    pub route_cache: RouteCacheStats,
}

impl EventStats {
    /// Total events handled, summed over every event type.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.frame_arrives
            + self.port_kicks
            + self.host_kicks
            + self.injects
            + self.tx_completes
            + self.link_transitions
    }
}

/// How the network degraded under injected faults — everything a "QoS
/// vs. fault intensity" plot needs. All zeros (the [`Default`]) when the
/// run was fault-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// Whether a fault engine was armed at all.
    pub faults_enabled: bool,
    /// Link-down transitions applied (nested overlaps included).
    pub link_down_events: u64,
    /// Link-up transitions applied.
    pub link_up_events: u64,
    /// Frames destroyed mid-serialization or at the head of a dead
    /// link's queue.
    pub frames_lost_on_dead_links: u64,
    /// Frames that vanished to stochastic wire loss.
    pub frames_lost_to_wire: u64,
    /// Frames delivered with flipped bits (every one must also show up
    /// in [`fcs_drops`](DegradationReport::fcs_drops) — corruption is
    /// never silently delivered).
    pub frames_corrupted: u64,
    /// Corrupted frames caught by an FCS check: switch ingress filters
    /// plus receiving host NICs.
    pub fcs_drops: u64,
    /// Flow reroutes performed by the failover logic (both onto detours
    /// and back onto primary paths).
    pub reroutes: u64,
    /// Reroute attempts that found no surviving path (the flow
    /// blackholes until a link returns).
    pub reroute_failures: u64,
    /// Frames lost to *capacity* (queue overflow, buffer exhaustion,
    /// host output overflow) — the baseline loss mechanism, separated
    /// so fault losses are attributable.
    pub frames_lost_to_capacity: u64,
    /// gPTP sync messages destroyed (downstream hops held over).
    pub syncs_lost: u64,
    /// Worst absolute sync offset (ns) observed at any sync round or at
    /// the end of the run.
    pub sync_offset_high_water_ns: f64,
    /// Per-flow deadline-miss and loss accounting, sorted by flow id.
    pub per_flow: Vec<(FlowId, FlowDegradation)>,
}

impl DegradationReport {
    /// All frames destroyed by faults (dead links + wire loss + FCS
    /// discards of corrupted frames).
    #[must_use]
    pub fn frames_lost_to_faults(&self) -> u64 {
        self.frames_lost_on_dead_links + self.frames_lost_to_wire + self.fcs_drops
    }

    /// Deadline misses attributed to detours, summed over flows.
    #[must_use]
    pub fn misses_on_detour(&self) -> u64 {
        self.per_flow.iter().map(|(_, d)| d.misses_on_detour).sum()
    }

    /// Deadline misses on primary paths, summed over flows.
    #[must_use]
    pub fn misses_on_primary(&self) -> u64 {
        self.per_flow.iter().map(|(_, d)| d.misses_on_primary).sum()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: link down/up {}/{} | lost dead={} wire={} fcs={} capacity={} | \
             corrupted {} | reroutes {} (failed {}) | misses detour={} primary={} | \
             syncs lost {} | sync high-water {:.1}ns",
            self.link_down_events,
            self.link_up_events,
            self.frames_lost_on_dead_links,
            self.frames_lost_to_wire,
            self.fcs_drops,
            self.frames_lost_to_capacity,
            self.frames_corrupted,
            self.reroutes,
            self.reroute_failures,
            self.misses_on_detour(),
            self.misses_on_primary(),
            self.syncs_lost,
            self.sync_offset_high_water_ns,
        )
    }
}

/// Everything a finished simulation reports — the data behind the paper's
/// Fig. 2 and Fig. 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-flow latency / jitter / loss records.
    pub analyzer: Analyzer,
    /// Per-`(node, port)` transmit-side link utilization in `[0, 1]`
    /// (ports that sent nothing are omitted).
    pub link_utilization: Vec<(NodeId, PortId, f64)>,
    /// 802.3br preemptions performed (0 unless frame preemption is
    /// enabled).
    pub preemptions: u64,
    /// Data-plane counters merged over all switches.
    pub switch_stats: SwitchStats,
    /// Per-switch counters.
    pub per_switch: Vec<(NodeId, SwitchStats)>,
    /// Highest per-queue occupancy observed anywhere — the measurement
    /// that justifies a `queue_depth` choice.
    pub max_queue_high_water: usize,
    /// Highest per-port buffer-pool occupancy observed anywhere — the
    /// measurement that justifies a `buffer_num` choice.
    pub max_pool_high_water: usize,
    /// Frames lost in host output stages (generator outran its link).
    pub host_overflow_drops: u64,
    /// Worst absolute gPTP error across switches at the end of the run
    /// (0 for perfect sync).
    pub sync_worst_error_ns: f64,
    /// Events the simulator processed: always `events.total()`.
    pub events_processed: u64,
    /// Event-core instrumentation (per-type counts, suppression,
    /// scheduler high-water mark).
    pub events: EventStats,
    /// Fault-injection consequences (all-zero when no faults were
    /// configured).
    pub degradation: DegradationReport,
    /// Simulation time at which the run ended.
    pub ended_at: SimTime,
}

impl SimReport {
    /// Aggregated TS latency statistics.
    #[must_use]
    pub fn ts_latency(&self) -> LatencyStats {
        self.analyzer.class_latency(TrafficClass::TimeSensitive)
    }

    /// Total TS frames lost end to end (the paper's headline QoS check:
    /// this must be 0).
    #[must_use]
    pub fn ts_lost(&self) -> u64 {
        self.analyzer.class_lost(TrafficClass::TimeSensitive)
    }

    /// Total TS deadline misses.
    #[must_use]
    pub fn ts_deadline_misses(&self) -> u64 {
        self.analyzer.deadline_misses()
    }

    /// TS frames injected.
    #[must_use]
    pub fn ts_injected(&self) -> u64 {
        self.analyzer.class_injected(TrafficClass::TimeSensitive)
    }

    /// Median TS latency from the streaming log2 histogram (`None` until
    /// a TS frame has been delivered).
    #[must_use]
    pub fn ts_p50(&self) -> Option<tsn_types::SimDuration> {
        self.ts_latency().p50()
    }

    /// 99th-percentile TS latency from the streaming log2 histogram.
    #[must_use]
    pub fn ts_p99(&self) -> Option<tsn_types::SimDuration> {
        self.ts_latency().p99()
    }

    /// 99.9th-percentile TS latency from the streaming log2 histogram.
    #[must_use]
    pub fn ts_p999(&self) -> Option<tsn_types::SimDuration> {
        self.ts_latency().p999()
    }

    /// The busiest transmit side of any link, as `(node, port,
    /// utilization)`.
    #[must_use]
    pub fn max_link_utilization(&self) -> Option<(NodeId, PortId, f64)> {
        self.link_utilization
            .iter()
            .copied()
            .max_by(|a, b| a.2.total_cmp(&b.2))
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ts = self.ts_latency();
        writeln!(
            f,
            "TS: n={} avg={:.1}us jitter={:.2}us min={:.1}us max={:.1}us \
             p50={:.1}us p99={:.1}us p999={:.1}us loss={} misses={}",
            ts.count(),
            ts.mean_us(),
            self.analyzer
                .class_mean_flow_jitter_ns(TrafficClass::TimeSensitive)
                / 1000.0,
            ts.min().map_or(0.0, |d| d.as_micros_f64()),
            ts.max().map_or(0.0, |d| d.as_micros_f64()),
            ts.p50().map_or(0.0, |d| d.as_micros_f64()),
            ts.p99().map_or(0.0, |d| d.as_micros_f64()),
            ts.p999().map_or(0.0, |d| d.as_micros_f64()),
            self.ts_lost(),
            self.ts_deadline_misses(),
        )?;
        for class in [TrafficClass::RateConstrained, TrafficClass::BestEffort] {
            let s = self.analyzer.class_latency(class);
            if s.count() > 0 {
                writeln!(
                    f,
                    "{}: n={} avg={:.1}us jitter={:.2}us loss={}",
                    class,
                    s.count(),
                    s.mean_us(),
                    self.analyzer.class_mean_flow_jitter_ns(class) / 1000.0,
                    self.analyzer.class_lost(class),
                )?;
            }
        }
        writeln!(
            f,
            "switches: {} | queue high-water {} | sync err {:.1}ns | {} events to {}",
            self.switch_stats,
            self.max_queue_high_water,
            self.sync_worst_error_ns,
            self.events_processed,
            self.ended_at,
        )?;
        write!(
            f,
            "events: arrive={} port-kick={} host-kick={} inject={} tx-done={} | \
             kicks suppressed {} | preempt tries {} | evq high-water {}",
            self.events.frame_arrives,
            self.events.port_kicks,
            self.events.host_kicks,
            self.events.injects,
            self.events.tx_completes,
            self.events.kicks_suppressed,
            self.events.preempt_attempts,
            self.events.queue_high_water,
        )?;
        if self.degradation.faults_enabled {
            write!(f, "\n{}", self.degradation)?;
        }
        Ok(())
    }
}
