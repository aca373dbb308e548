//! The paper's three evaluation topologies as ready-made builders.
//!
//! All presets use 1 Gbps links (the paper's testbed rate) and attach at
//! most one host per switch. Hosts model the TSNNic traffic generators and
//! the TSN analyzer of Fig. 6. [`TopologySpec`] is how a request names
//! one of them, or lists its own nodes and links instead.

use std::collections::BTreeMap;

use crate::graph::{Topology, DEFAULT_PROPAGATION};
use crate::link::LinkDirection;
use tsn_types::{DataRate, Digest, TsnError, TsnResult};

/// Link rate used by all presets (matches the paper's 1 Gbps testbed).
pub const PRESET_RATE: DataRate = DataRate::gbps(1);

/// The paper's three evaluation presets by name: the one mapping from a
/// request's `"ring"`/`"linear"`/`"star"` to its builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`linear`]: a chain, valid from 1 switch.
    Linear,
    /// [`ring`]: valid from 3 switches.
    Ring,
    /// [`star`]: `switches` counts the children (plus a core).
    Star,
}

impl Preset {
    /// Every preset.
    pub const ALL: [Preset; 3] = [Preset::Linear, Preset::Ring, Preset::Star];

    /// The preset's name in requests and corpus files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Preset::Linear => "linear",
            Preset::Ring => "ring",
            Preset::Star => "star",
        }
    }

    /// Builds the preset with `switches` switches (children for
    /// [`Preset::Star`]) and `hosts` hosts.
    ///
    /// # Errors
    ///
    /// The preset builder's validation errors.
    pub fn build(self, switches: usize, hosts: usize) -> TsnResult<Topology> {
        match self {
            Preset::Linear => linear(switches, hosts),
            Preset::Ring => ring(switches, hosts),
            Preset::Star => star(switches, hosts),
        }
    }
}

impl std::str::FromStr for Preset {
    type Err = TsnError;

    /// The preset called `name`.
    ///
    /// # Errors
    ///
    /// [`TsnError::InvalidParameter`] named `topology.kind` for any other
    /// name.
    fn from_str(name: &str) -> TsnResult<Self> {
        Preset::ALL
            .into_iter()
            .find(|preset| preset.name() == name)
            .ok_or_else(|| {
                TsnError::invalid_parameter(
                    "topology.kind",
                    format!("unknown topology name {name:?} (expected ring, linear or star)"),
                )
            })
    }
}

/// A request's network, as every JSON front end describes it: a named
/// [`Preset`] or an explicit node/link list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// One of the preset generators (`ring`, `linear`, `star`).
    Named {
        /// Preset name, resolved by [`TopologySpec::build`].
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
        /// Bidirectional links as `(a, b)` name pairs, all at
        /// [`PRESET_RATE`].
        links: Vec<(String, String)>,
    },
}

impl TopologySpec {
    /// Feeds the description into `digest`: a variant tag, then every
    /// field in declaration order.
    pub fn digest(&self, digest: &mut Digest) {
        match self {
            TopologySpec::Named {
                kind,
                switches,
                hosts,
            } => {
                digest.u8(0).str(kind).usize(*switches).usize(*hosts);
            }
            TopologySpec::Inline {
                switches,
                hosts,
                links,
            } => {
                digest.u8(1).usize(switches.len());
                for name in switches {
                    digest.str(name);
                }
                digest.usize(hosts.len());
                for name in hosts {
                    digest.str(name);
                }
                digest.usize(links.len());
                for (a, b) in links {
                    digest.str(a).str(b);
                }
            }
        }
    }

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
                let nodes = switches.iter().map(|name| (name, true));
                for (name, switch) in nodes.chain(hosts.iter().map(|name| (name, false))) {
                    let (field, id) = if switch {
                        ("topology.switches", topo.add_switch(name.clone()))
                    } else {
                        ("topology.hosts", topo.add_host(name.clone()))
                    };
                    if by_name.insert(name, id).is_some() {
                        let reason = format!("duplicate node name {name:?}");
                        return Err(TsnError::invalid_parameter(field, reason));
                    }
                }
                let node = |name: &String| {
                    by_name.get(name).copied().ok_or_else(|| {
                        TsnError::invalid_parameter(
                            "topology.links",
                            format!("link endpoint {name:?} is not a declared node"),
                        )
                    })
                };
                for (a, b) in links {
                    topo.connect(node(a)?, node(b)?, PRESET_RATE)?;
                }
                Ok(topo)
            }
        }
    }
}

fn check_counts(switches: usize, hosts: usize) -> TsnResult<()> {
    if switches == 0 {
        return Err(TsnError::invalid_parameter(
            "switches",
            "a topology needs at least one switch",
        ));
    }
    if hosts > switches {
        return Err(TsnError::invalid_parameter(
            "hosts",
            "at most one host per switch in preset topologies",
        ));
    }
    if hosts == 0 {
        return Err(TsnError::invalid_parameter(
            "hosts",
            "at least one host is needed to source or sink traffic",
        ));
    }
    Ok(())
}

/// A ring of `switches` switches with **unidirectional** deterministic
/// transmission (each switch enables a single TSN port), plus one host on
/// each of the first `hosts` switches.
///
/// This is the topology of the paper's Fig. 6 when called as
/// `ring(6, 3)`.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] if `switches < 3` (a ring needs
/// three nodes), `hosts == 0`, or `hosts > switches`.
///
/// # Example
///
/// ```
/// use tsn_topology::presets;
///
/// let topo = presets::ring(6, 3)?;
/// assert_eq!(topo.switches().len(), 6);
/// assert_eq!(topo.hosts().len(), 3);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn ring(switches: usize, hosts: usize) -> TsnResult<Topology> {
    check_counts(switches, hosts)?;
    if switches < 3 {
        return Err(TsnError::invalid_parameter(
            "switches",
            "a ring needs at least three switches",
        ));
    }
    let mut topo = Topology::new();
    let sw: Vec<_> = (0..switches)
        .map(|i| topo.add_switch(format!("sw{i}")))
        .collect();
    for i in 0..switches {
        topo.connect_with(
            sw[i],
            sw[(i + 1) % switches],
            PRESET_RATE,
            DEFAULT_PROPAGATION,
            LinkDirection::AToB,
        )?;
    }
    attach_hosts(&mut topo, &sw, hosts)?;
    Ok(topo)
}

/// A chain of `switches` switches with bidirectional forwarding, plus one
/// host on each of the first `hosts` switches (hosts are spread from both
/// ends so end-to-end flows exist: first host on the head, second on the
/// tail, then inward).
///
/// The paper's linear scenario is `linear(6, hosts)` with 2 enabled TSN
/// ports per interior switch.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] if `switches == 0`, `hosts == 0`
/// or `hosts > switches`.
pub fn linear(switches: usize, hosts: usize) -> TsnResult<Topology> {
    check_counts(switches, hosts)?;
    let mut topo = Topology::new();
    let sw: Vec<_> = (0..switches)
        .map(|i| topo.add_switch(format!("sw{i}")))
        .collect();
    for pair in sw.windows(2) {
        topo.connect(pair[0], pair[1], PRESET_RATE)?;
    }
    // Spread host attachment: ends first, then inward, so traffic can cross
    // the whole chain even with few hosts.
    let mut order: Vec<usize> = Vec::with_capacity(switches);
    let (mut lo, mut hi) = (0usize, switches - 1);
    while lo <= hi {
        order.push(lo);
        if lo != hi {
            order.push(hi);
        }
        lo += 1;
        if hi == 0 {
            break;
        }
        hi -= 1;
    }
    for (host_idx, &sw_idx) in order.iter().take(hosts).enumerate() {
        let host = topo.add_host(format!("host{host_idx}"));
        topo.connect(host, sw[sw_idx], PRESET_RATE)?;
    }
    Ok(topo)
}

/// A star: one core switch with `children` child switches, one host on each
/// of the first `hosts` children.
///
/// The paper's star scenario is `star(3, 3)`: 4 switches, the core with up
/// to 3 enabled TSN ports.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] if `children == 0`, `hosts == 0`
/// or `hosts > children`.
pub fn star(children: usize, hosts: usize) -> TsnResult<Topology> {
    check_counts(children, hosts)?;
    let mut topo = Topology::new();
    let core = topo.add_switch("core");
    let mut child_switches = Vec::with_capacity(children);
    for i in 0..children {
        let child = topo.add_switch(format!("sw{}", i + 1));
        topo.connect(core, child, PRESET_RATE)?;
        child_switches.push(child);
    }
    attach_hosts(&mut topo, &child_switches, hosts)?;
    Ok(topo)
}

/// A k-ary fat-tree (folded Clos) data-center fabric with `k/2` hosts per
/// edge switch: `(k/2)²` core switches and `k` pods of `k/2` aggregation +
/// `k/2` edge switches each, `k³/4` hosts total.
///
/// Aggregation switch `j` of every pod uplinks to core group `j` (cores
/// `j·k/2 .. (j+1)·k/2`), the classic rearrangeably non-blocking wiring.
/// All links are bidirectional at [`PRESET_RATE`].
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] unless `k` is even and `k ≥ 2`.
///
/// # Example
///
/// ```
/// use tsn_topology::presets;
///
/// let topo = presets::fat_tree(4)?;
/// assert_eq!(topo.switches().len(), 4 * 4 + 4); // 4 cores + 4 pods × 4
/// assert_eq!(topo.hosts().len(), 16);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn fat_tree(k: usize) -> TsnResult<Topology> {
    fat_tree_with_hosts(k, k / 2)
}

/// [`fat_tree`] with `hosts_per_edge` hosts on each edge switch
/// (`1 ..= k/2`), for workloads that need fewer end stations than the
/// full fabric supports.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] unless `k` is even, `k ≥ 2` and
/// `1 <= hosts_per_edge <= k/2`.
pub fn fat_tree_with_hosts(k: usize, hosts_per_edge: usize) -> TsnResult<Topology> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(TsnError::invalid_parameter(
            "k",
            "a fat-tree needs an even k of at least 2",
        ));
    }
    let half = k / 2;
    if hosts_per_edge == 0 || hosts_per_edge > half {
        return Err(TsnError::invalid_parameter(
            "hosts_per_edge",
            "an edge switch hosts between 1 and k/2 end stations",
        ));
    }
    let mut topo = Topology::new();
    let cores: Vec<_> = (0..half * half)
        .map(|i| topo.add_switch(format!("core{i}")))
        .collect();
    for pod in 0..k {
        let aggs: Vec<_> = (0..half)
            .map(|j| topo.add_switch(format!("pod{pod}-agg{j}")))
            .collect();
        let edges: Vec<_> = (0..half)
            .map(|j| topo.add_switch(format!("pod{pod}-edge{j}")))
            .collect();
        for (j, &agg) in aggs.iter().enumerate() {
            for &core in &cores[j * half..(j + 1) * half] {
                topo.connect(agg, core, PRESET_RATE)?;
            }
            for &edge in &edges {
                topo.connect(edge, agg, PRESET_RATE)?;
            }
        }
        for (j, &edge) in edges.iter().enumerate() {
            for h in 0..hosts_per_edge {
                let host = topo.add_host(format!("pod{pod}-e{j}-h{h}"));
                topo.connect(host, edge, PRESET_RATE)?;
            }
        }
    }
    Ok(topo)
}

/// A multi-ring industrial backbone: `rings` production-cell rings of
/// `ring_size` switches each (bidirectional cycles), whose first switch is
/// a gateway; the gateways are joined by a bidirectional backbone ring.
/// `hosts_per_ring` hosts attach to each cell's first switches.
///
/// This is the large-plant shape of IEC/IEEE 60802-style deployments:
/// machine-level rings for local sensor/actuator traffic, a plant backbone
/// for cross-cell flows.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] if `rings == 0`, `ring_size < 3`,
/// `hosts_per_ring == 0` or `hosts_per_ring > ring_size`.
///
/// # Example
///
/// ```
/// use tsn_topology::presets;
///
/// let topo = presets::multi_ring(4, 8, 8)?;
/// assert_eq!(topo.switches().len(), 32);
/// assert_eq!(topo.hosts().len(), 32);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn multi_ring(rings: usize, ring_size: usize, hosts_per_ring: usize) -> TsnResult<Topology> {
    if rings == 0 {
        return Err(TsnError::invalid_parameter(
            "rings",
            "a plant needs at least one cell ring",
        ));
    }
    if ring_size < 3 {
        return Err(TsnError::invalid_parameter(
            "ring_size",
            "a cell ring needs at least three switches",
        ));
    }
    if hosts_per_ring == 0 || hosts_per_ring > ring_size {
        return Err(TsnError::invalid_parameter(
            "hosts_per_ring",
            "each cell hosts between 1 and ring_size end stations",
        ));
    }
    let mut topo = Topology::new();
    let mut gateways = Vec::with_capacity(rings);
    for r in 0..rings {
        let members: Vec<_> = (0..ring_size)
            .map(|i| topo.add_switch(format!("cell{r}-sw{i}")))
            .collect();
        gateways.push(members[0]);
        for i in 0..ring_size {
            topo.connect(members[i], members[(i + 1) % ring_size], PRESET_RATE)?;
        }
        for (h, &sw) in members.iter().take(hosts_per_ring).enumerate() {
            let host = topo.add_host(format!("cell{r}-host{h}"));
            topo.connect(host, sw, PRESET_RATE)?;
        }
    }
    // Backbone ring over the gateways (a single link suffices below three
    // cells; one cell needs no backbone at all).
    match rings {
        1 => {}
        2 => {
            topo.connect(gateways[0], gateways[1], PRESET_RATE)?;
        }
        _ => {
            for r in 0..rings {
                topo.connect(gateways[r], gateways[(r + 1) % rings], PRESET_RATE)?;
            }
        }
    }
    Ok(topo)
}

fn attach_hosts(
    topo: &mut Topology,
    switches: &[tsn_types::NodeId],
    hosts: usize,
) -> TsnResult<()> {
    for (i, &sw) in switches.iter().take(hosts).enumerate() {
        let host = topo.add_host(format!("host{i}"));
        topo.connect(host, sw, PRESET_RATE)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_from_their_names_and_build() {
        for preset in Preset::ALL {
            assert_eq!(preset.name().parse::<Preset>(), Ok(preset));
            let topo = preset.build(3, 2).expect("builds");
            assert_eq!(topo.hosts().len(), 2);
        }
        let named = |kind: &str| TopologySpec::Named {
            kind: kind.into(),
            switches: 3,
            hosts: 2,
        };
        let topo = named("ring").build().expect("named ring builds");
        assert_eq!(topo.hosts().len(), 2, "preset hosts are a total count");
        match named("moebius").build() {
            Err(TsnError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "topology.kind");
                assert!(reason.contains("moebius"), "{reason}");
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
    fn ring_matches_paper_shape() {
        let topo = ring(6, 3).expect("paper ring builds");
        assert_eq!(topo.switches().len(), 6);
        assert_eq!(topo.hosts().len(), 3);
        // 6 ring links + 3 host links.
        assert_eq!(topo.links().len(), 9);
        // Every ring link is unidirectional.
        let uni = topo
            .links()
            .iter()
            .filter(|l| l.direction() == LinkDirection::AToB)
            .count();
        assert_eq!(uni, 6);
    }

    #[test]
    fn ring_routes_only_clockwise() {
        let topo = ring(6, 6).expect("full ring builds");
        let hosts = topo.hosts();
        // host0 -> host1 is one switch-to-switch hop; host1 -> host0 wraps.
        let fwd = topo.route(hosts[0], hosts[1]).expect("forward route");
        let back = topo.route(hosts[1], hosts[0]).expect("wrap-around route");
        assert_eq!(fwd.switch_hops(), 2);
        assert_eq!(back.switch_hops(), 6);
    }

    #[test]
    fn linear_matches_paper_shape() {
        let topo = linear(6, 2).expect("paper linear builds");
        assert_eq!(topo.switches().len(), 6);
        assert_eq!(topo.hosts().len(), 2);
        // Hosts sit at opposite ends.
        let hosts = topo.hosts();
        let r = topo.route(hosts[0], hosts[1]).expect("end-to-end route");
        assert_eq!(r.switch_hops(), 6);
    }

    #[test]
    fn linear_is_bidirectional() {
        let topo = linear(4, 2).expect("builds");
        let hosts = topo.hosts();
        assert!(topo.route(hosts[0], hosts[1]).is_ok());
        assert!(topo.route(hosts[1], hosts[0]).is_ok());
    }

    #[test]
    fn star_matches_paper_shape() {
        let topo = star(3, 3).expect("paper star builds");
        assert_eq!(topo.switches().len(), 4, "core + 3 children");
        assert_eq!(topo.hosts().len(), 3);
        let hosts = topo.hosts();
        // Child-to-child crosses child, core, child = 3 switches.
        let r = topo.route(hosts[0], hosts[1]).expect("route via core");
        assert_eq!(r.switch_hops(), 3);
    }

    #[test]
    fn presets_validate_counts() {
        assert!(ring(2, 1).is_err());
        assert!(ring(6, 7).is_err());
        assert!(ring(6, 0).is_err());
        assert!(linear(0, 0).is_err());
        assert!(star(3, 4).is_err());
    }

    #[test]
    fn fat_tree_matches_clos_arithmetic() {
        for k in [2usize, 4, 6] {
            let topo = fat_tree(k).expect("fat-tree builds");
            let half = k / 2;
            assert_eq!(topo.switches().len(), half * half + k * k, "k={k}");
            assert_eq!(topo.hosts().len(), k * half * half, "k={k}");
            // core-agg + agg-edge + host links.
            let expected_links = k * half * half + k * half * half + k * half * half;
            assert_eq!(topo.links().len(), expected_links, "k={k}");
        }
    }

    #[test]
    fn fat_tree_route_lengths_are_bounded() {
        let topo = fat_tree(4).expect("builds");
        let hosts = topo.hosts();
        // Same edge switch: 1 switch hop. hosts 0,1 share pod0-edge0.
        assert_eq!(topo.route(hosts[0], hosts[1]).unwrap().switch_hops(), 1);
        // Same pod, different edge: edge-agg-edge.
        assert_eq!(topo.route(hosts[0], hosts[2]).unwrap().switch_hops(), 3);
        // Cross pod: edge-agg-core-agg-edge.
        assert_eq!(topo.route(hosts[0], hosts[4]).unwrap().switch_hops(), 5);
    }

    #[test]
    fn fat_tree_validates_parameters() {
        assert!(fat_tree(0).is_err());
        assert!(fat_tree(3).is_err());
        assert!(fat_tree_with_hosts(4, 0).is_err());
        assert!(fat_tree_with_hosts(4, 3).is_err());
        assert!(fat_tree_with_hosts(4, 1).is_ok());
    }

    #[test]
    fn multi_ring_matches_plant_arithmetic() {
        let topo = multi_ring(3, 5, 2).expect("plant builds");
        assert_eq!(topo.switches().len(), 15);
        assert_eq!(topo.hosts().len(), 6);
        // 3 cells × 5 cycle links + 6 host links + 3 backbone links.
        assert_eq!(topo.links().len(), 15 + 6 + 3);
        // Cross-cell route crosses both gateways.
        let hosts = topo.hosts();
        let r = topo.route(hosts[0], hosts[2]).expect("cross-cell route");
        assert!(r.switch_hops() >= 2);
    }

    #[test]
    fn multi_ring_small_counts_avoid_duplicate_backbones() {
        let one = multi_ring(1, 3, 1).expect("single cell");
        assert_eq!(one.links().len(), 3 + 1);
        let two = multi_ring(2, 3, 1).expect("two cells");
        // 2×3 cycle links + 2 host links + exactly one backbone link.
        assert_eq!(two.links().len(), 6 + 2 + 1);
        assert!(multi_ring(0, 3, 1).is_err());
        assert!(multi_ring(2, 2, 1).is_err());
        assert!(multi_ring(2, 3, 0).is_err());
        assert!(multi_ring(2, 3, 4).is_err());
    }

    #[test]
    fn linear_host_spread_reaches_both_ends() {
        let topo = linear(5, 3).expect("builds");
        let hosts = topo.hosts();
        let ends: Vec<_> = hosts
            .iter()
            .map(|&h| topo.switch_of_host(h).expect("attached"))
            .collect();
        let switches = topo.switches();
        assert!(ends.contains(&switches[0]));
        assert!(ends.contains(&switches[4]));
    }
}
