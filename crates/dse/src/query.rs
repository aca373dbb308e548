//! The query model: QoS targets over a named or inline topology.

use tsn_builder::workloads;
use tsn_sim::sweep::fingerprint;
use tsn_topology::Topology;
use tsn_types::{FlowSet, SimDuration, TsnError, TsnResult};

/// Most TS flows per query, shared with `customize` scenario files.
pub use tsn_experiments::limits::MAX_TS_COUNT;
/// A query's network: the topology description every front end reads.
pub use tsn_topology::presets::TopologySpec;

/// One design-space-search query: a uniform QoS target over a generated
/// TS flow set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosQuery {
    /// Caller-chosen label echoed in the response (not part of the
    /// query's identity — identical queries under different labels share
    /// one search).
    pub label: String,
    /// The network.
    pub topology: TopologySpec,
    /// TS flow count (talker/listener pairs drawn from `seed`).
    pub ts_count: u32,
    /// TS frame size in bytes.
    pub frame_bytes: u32,
    /// TS period.
    pub period: SimDuration,
    /// Workload seed for the talker/listener draw.
    pub seed: u64,
    /// Per-flow end-to-end deadline — every flow must meet it.
    pub deadline: SimDuration,
    /// Optional per-flow jitter target (max − min latency).
    pub jitter: Option<SimDuration>,
    /// TS frames the caller tolerates losing (0 = lossless).
    pub max_lost: u64,
    /// Injection window of the confirming simulation.
    pub duration: SimDuration,
}

impl QosQuery {
    /// The query's identity, label excluded: two queries with equal
    /// fingerprints share one memoized search.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&(
            &self.topology,
            self.ts_count,
            self.frame_bytes,
            self.period,
            self.seed,
            self.deadline,
            self.jitter,
            self.max_lost,
            self.duration,
        ))
    }

    /// Materializes the flow set over `topology`.
    ///
    /// # Errors
    ///
    /// [`TsnError::InvalidParameter`] past [`MAX_TS_COUNT`] flows;
    /// propagates workload validation (zero flows, too few hosts, bad
    /// frame size) as structured [`TsnError`]s.
    pub fn flows(&self, topology: &Topology) -> TsnResult<FlowSet> {
        if self.ts_count > MAX_TS_COUNT {
            return Err(TsnError::invalid_parameter(
                "ts_count",
                format!(
                    "{} flows exceed the {MAX_TS_COUNT}-VLAN wheel",
                    self.ts_count
                ),
            ));
        }
        workloads::uniform_ts_flows(
            topology,
            self.ts_count,
            self.frame_bytes,
            self.period,
            self.deadline,
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> QosQuery {
        QosQuery {
            label: "q".into(),
            topology: TopologySpec::Named {
                kind: "ring".into(),
                switches: 3,
                hosts: 2,
            },
            ts_count: 6,
            frame_bytes: 64,
            period: SimDuration::from_millis(10),
            seed: 7,
            deadline: SimDuration::from_millis(4),
            jitter: None,
            max_lost: 0,
            duration: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn fingerprint_ignores_the_label_only() {
        let a = query();
        let mut b = a.clone();
        b.label = "renamed".into();
        assert_eq!(a.fingerprint(), b.fingerprint(), "label is not identity");
        let mut c = a.clone();
        c.ts_count += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
