//! The query model: QoS targets over a named or inline topology.

use tsn_builder::workloads;
use tsn_topology::Topology;
use tsn_types::{Digest, FlowSet, SimDuration, TsnError, TsnResult};

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
    /// fingerprints share one memoized search. A [`Digest`] of every
    /// other field in declaration order, so the value responses print
    /// depends only on the query.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut digest = Digest::new();
        self.topology.digest(&mut digest);
        digest
            .u32(self.ts_count)
            .u32(self.frame_bytes)
            .duration(self.period)
            .u64(self.seed)
            .duration(self.deadline)
            .option(self.jitter, Digest::duration)
            .u64(self.max_lost)
            .duration(self.duration)
            .finish()
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

    /// The `ring-lossless` and `inline-chain` queries of
    /// `scenarios/dse_batch.json`.
    fn pinned() -> [QosQuery; 2] {
        let named = QosQuery {
            label: "ring-lossless".into(),
            ts_count: 6,
            frame_bytes: 128,
            period: SimDuration::from_millis(2),
            seed: 11,
            deadline: SimDuration::from_millis(4),
            duration: SimDuration::from_millis(5),
            ..query()
        };
        let names = |names: &[&str]| names.iter().map(|&n| n.to_owned()).collect();
        let inline = QosQuery {
            label: "inline-chain".into(),
            topology: TopologySpec::Inline {
                switches: names(&["s0", "s1"]),
                hosts: names(&["h0", "h1"]),
                links: [("h0", "s0"), ("s0", "s1"), ("s1", "h1")]
                    .map(|(a, b)| (a.to_owned(), b.to_owned()))
                    .to_vec(),
            },
            ts_count: 4,
            frame_bytes: 256,
            period: SimDuration::from_millis(4),
            seed: 9,
            deadline: SimDuration::from_millis(8),
            jitter: None,
            max_lost: 0,
            duration: SimDuration::from_millis(8),
        };
        [named, inline]
    }

    /// The digests are a format: the DSE golden prints them, so they
    /// must not move with the toolchain or the `Debug` text.
    #[test]
    fn fingerprints_are_pinned_digests() {
        let [named, inline] = pinned();
        assert_eq!(named.fingerprint(), 0x5566_5998_c349_fb16);
        assert_eq!(inline.fingerprint(), 0xdcc4_915d_92ec_7e5c);
    }

    #[test]
    fn every_field_but_the_label_moves_the_fingerprint() {
        let edits: [fn(&mut QosQuery); 11] = [
            |q| q.ts_count += 1,
            |q| q.frame_bytes += 1,
            |q| q.period += SimDuration::from_micros(1),
            |q| q.seed += 1,
            |q| q.deadline += SimDuration::from_micros(1),
            |q| q.jitter = Some(q.jitter.unwrap_or_default() + SimDuration::from_micros(1)),
            |q| q.max_lost += 1,
            |q| q.duration += SimDuration::from_micros(1),
            |q| match &mut q.topology {
                TopologySpec::Named { kind, .. } => kind.push('x'),
                TopologySpec::Inline { switches, .. } => switches[0].push('x'),
            },
            |q| match &mut q.topology {
                TopologySpec::Named { switches, .. } => *switches += 1,
                TopologySpec::Inline { hosts, .. } => hosts[1].push('x'),
            },
            |q| match &mut q.topology {
                TopologySpec::Named { hosts, .. } => *hosts += 1,
                TopologySpec::Inline { links, .. } => links.swap(0, 2),
            },
        ];
        for base in pinned() {
            let mut relabeled = base.clone();
            relabeled.label = "renamed".into();
            assert_eq!(relabeled.fingerprint(), base.fingerprint());
            for (i, edit) in edits.iter().enumerate() {
                let mut changed = base.clone();
                edit(&mut changed);
                assert_ne!(changed, base, "edit {i} changes a field");
                assert_ne!(changed.fingerprint(), base.fingerprint(), "edit {i}");
            }
        }
        // A string's length keeps its bytes from sliding into the next
        // field: these two inline topologies spell the same characters.
        let spec = |switches: &[&str], hosts: &[&str]| TopologySpec::Inline {
            switches: switches.iter().map(|&n| n.to_owned()).collect(),
            hosts: hosts.iter().map(|&n| n.to_owned()).collect(),
            links: Vec::new(),
        };
        let (mut a, mut b) = (query(), query());
        a.topology = spec(&["ab"], &["c"]);
        b.topology = spec(&["a"], &["bc"]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
