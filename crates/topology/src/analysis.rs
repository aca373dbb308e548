//! Enabled-TSN-port analysis.
//!
//! Section III.C, guideline (5): *"The number of enabled ports for
//! deterministic transmission is closely related to the topologies and
//! transmission direction."* A TSN port is one that needs gate control and
//! shaping hardware — in this model, a switch egress port that carries
//! time-sensitive traffic towards **another switch** (the paper counts its
//! topologies this way: star → 3, linear → 2, ring → 1).

use crate::graph::Topology;
use crate::route::Route;
use std::collections::{BTreeMap, BTreeSet};
use tsn_types::{NodeId, PortId};

/// Per-switch sets of egress ports that carry TS traffic towards other
/// switches.
///
/// # Example
///
/// ```
/// use tsn_topology::{presets, EnabledPorts};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let route = topo.route(hosts[0], hosts[1])?;
/// let enabled = EnabledPorts::from_routes(&topo, [&route]);
/// assert_eq!(enabled.max_per_switch(), 1); // the paper's ring column
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EnabledPorts {
    per_switch: BTreeMap<NodeId, BTreeSet<PortId>>,
}

impl EnabledPorts {
    /// Analyses the routes of the TS flows.
    pub fn from_routes<'r>(
        topology: &Topology,
        routes: impl IntoIterator<Item = &'r Route>,
    ) -> Self {
        let mut result = EnabledPorts::default();
        for route in routes {
            result.add_route(topology, route);
        }
        result
    }

    /// Adds one TS flow's route to the analysis.
    pub fn add_route(&mut self, topology: &Topology, route: &Route) {
        let hops = route.hops();
        for pair in hops.windows(2) {
            let (hop, next) = (&pair[0], &pair[1]);
            if hop.kind != crate::NodeKind::Switch {
                continue;
            }
            // TSN features are needed on switch-to-switch egress ports.
            let next_is_switch = topology
                .node(next.node)
                .map(|n| n.is_switch())
                .unwrap_or(false);
            if let (Some(egress), true) = (hop.egress, next_is_switch) {
                self.per_switch.entry(hop.node).or_default().insert(egress);
            }
        }
    }

    /// The ports enabled on one switch (empty set if the switch carries no
    /// TS traffic).
    #[must_use]
    pub fn ports_of(&self, switch: NodeId) -> usize {
        self.per_switch.get(&switch).map_or(0, BTreeSet::len)
    }

    /// Whether a specific egress port on `switch` carries TS traffic
    /// towards another switch — i.e. needs gate-control hardware.
    #[must_use]
    pub fn is_enabled(&self, switch: NodeId, port: PortId) -> bool {
        self.per_switch
            .get(&switch)
            .is_some_and(|ports| ports.contains(&port))
    }

    /// The maximum enabled-port count over all switches — the `port_num`
    /// the customized configuration must provision (Table III uses 3/2/1
    /// for star/linear/ring).
    #[must_use]
    pub fn max_per_switch(&self) -> usize {
        self.per_switch
            .values()
            .map(BTreeSet::len)
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(switch, enabled port count)` pairs, ordered by node
    /// id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.per_switch.iter().map(|(&n, ports)| (n, ports.len()))
    }

    /// Number of switches that carry any TS traffic.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.per_switch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// The enabled ports of TS traffic between every ordered host pair.
    fn all_pairs(topology: &Topology) -> EnabledPorts {
        let hosts = topology.hosts();
        let routes: Vec<Route> = hosts
            .iter()
            .flat_map(|&a| hosts.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
            .map(|(a, b)| topology.route(a, b).expect("routes ok"))
            .collect();
        EnabledPorts::from_routes(topology, &routes)
    }

    #[test]
    fn star_enables_three_ports_on_the_core() {
        let topo = presets::star(3, 3).expect("builds");
        let enabled = all_pairs(&topo);
        assert_eq!(enabled.max_per_switch(), 3, "paper Table III star column");
        // Child switches only ever send towards the core.
        let core = topo.switches()[0];
        assert_eq!(enabled.ports_of(core), 3);
        for &child in &topo.switches()[1..] {
            assert_eq!(enabled.ports_of(child), 1);
        }
    }

    #[test]
    fn linear_enables_two_ports_in_the_middle() {
        let topo = presets::linear(6, 2).expect("builds");
        let enabled = all_pairs(&topo);
        assert_eq!(enabled.max_per_switch(), 2, "paper Table III linear column");
    }

    #[test]
    fn ring_enables_a_single_port_per_switch() {
        let topo = presets::ring(6, 3).expect("builds");
        let enabled = all_pairs(&topo);
        assert_eq!(enabled.max_per_switch(), 1, "paper Table III ring column");
        // Every switch on a used path enables exactly its clockwise port.
        for (_, count) in enabled.iter() {
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn empty_flow_set_enables_nothing() {
        let topo = presets::ring(3, 1).expect("builds");
        let enabled = EnabledPorts::from_routes(&topo, &[]);
        assert_eq!(enabled.max_per_switch(), 0);
        assert_eq!(enabled.switch_count(), 0);
    }
}
