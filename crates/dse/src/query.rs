//! The query model: QoS targets over a named or inline topology.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use tsn_builder::workloads;
use tsn_topology::presets::Preset;
use tsn_topology::Topology;
use tsn_types::{DataRate, FlowSet, SimDuration, TsnError, TsnResult};

/// Link rate of every queried network (the paper's evaluation uses
/// 1 Gbps throughout).
pub const LINK_RATE: DataRate = DataRate::gbps(1);

/// Most TS flows per query, shared with `customize` scenario files.
pub use tsn_experiments::limits::MAX_TS_COUNT;

/// Where a query's network comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// One of the preset generators (`ring`, `linear`, `star`).
    Named {
        /// Preset name.
        kind: String,
        /// Switch count (ring/linear) or child-switch count (star).
        switches: usize,
        /// Total host count, spread across the switches by the preset.
        hosts: usize,
    },
    /// An explicit node/link list, built with [`Topology::new`].
    Inline {
        /// Switch names, in id order.
        switches: Vec<String>,
        /// Host names, in id order.
        hosts: Vec<String>,
        /// Links as `(a, b)` name pairs, all at [`LINK_RATE`].
        links: Vec<(String, String)>,
    },
}

impl TopologySpec {
    /// Materializes the topology.
    ///
    /// # Errors
    ///
    /// [`TsnError::InvalidParameter`] for an unknown preset name, a
    /// duplicate node name or a link naming an undeclared node;
    /// propagates preset validation.
    pub fn build(&self) -> TsnResult<Topology> {
        match self {
            TopologySpec::Named {
                kind,
                switches,
                hosts,
            } => kind.parse::<Preset>()?.build(*switches, *hosts),
            TopologySpec::Inline {
                switches,
                hosts,
                links,
            } => {
                let mut topo = Topology::new();
                let mut by_name = BTreeMap::new();
                for name in switches {
                    let id = topo.add_switch(name.clone());
                    if by_name.insert(name.clone(), id).is_some() {
                        return Err(TsnError::invalid_parameter(
                            "topology.switches",
                            format!("duplicate node name {name:?}"),
                        ));
                    }
                }
                for name in hosts {
                    let id = topo.add_host(name.clone());
                    if by_name.insert(name.clone(), id).is_some() {
                        return Err(TsnError::invalid_parameter(
                            "topology.hosts",
                            format!("duplicate node name {name:?}"),
                        ));
                    }
                }
                for (a, b) in links {
                    let missing = |name: &str| {
                        TsnError::invalid_parameter(
                            "topology.links",
                            format!("link endpoint {name:?} is not a declared node"),
                        )
                    };
                    let &na = by_name.get(a).ok_or_else(|| missing(a))?;
                    let &nb = by_name.get(b).ok_or_else(|| missing(b))?;
                    topo.connect(na, nb, LINK_RATE)?;
                }
                Ok(topo)
            }
        }
    }
}

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

/// Hashes any `Debug` value — the same cheap structural-identity idiom
/// the sweep planner uses for its memo keys.
pub(crate) fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{value:?}").hash(&mut hasher);
    hasher.finish()
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
    fn named_presets_build_and_unknown_names_are_structured_errors() {
        let q = query();
        let topo = q.topology.build().expect("ring builds");
        assert_eq!(topo.hosts().len(), 2, "preset hosts are a total count");
        let bad = TopologySpec::Named {
            kind: "torus".into(),
            switches: 3,
            hosts: 2,
        };
        match bad.build() {
            Err(TsnError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "topology.kind");
                assert!(reason.contains("torus"), "{reason}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn inline_topologies_build_and_validate_node_names() {
        let spec = TopologySpec::Inline {
            switches: vec!["s0".into(), "s1".into()],
            hosts: vec!["h0".into(), "h1".into()],
            links: vec![
                ("h0".into(), "s0".into()),
                ("s0".into(), "s1".into()),
                ("s1".into(), "h1".into()),
            ],
        };
        let topo = spec.build().expect("inline builds");
        assert_eq!(topo.hosts().len(), 2);
        assert_eq!(topo.switches().len(), 2);

        let dangling = TopologySpec::Inline {
            switches: vec!["s0".into()],
            hosts: vec!["h0".into()],
            links: vec![("h0".into(), "sX".into())],
        };
        assert!(matches!(
            dangling.build(),
            Err(TsnError::InvalidParameter { .. })
        ));

        let duped = TopologySpec::Inline {
            switches: vec!["n".into()],
            hosts: vec!["n".into()],
            links: vec![],
        };
        assert!(matches!(
            duped.build(),
            Err(TsnError::InvalidParameter { .. })
        ));
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
