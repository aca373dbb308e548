//! The topology graph and shortest-path routing.

use crate::link::{Link, LinkDirection, LinkEnd, LinkId};
use crate::node::{Node, NodeKind};
use crate::route::{Route, RouteHop};
use std::collections::VecDeque;
use tsn_types::{DataRate, NodeId, PortId, SimDuration, TsnError, TsnResult};

/// Default one-way propagation delay for [`Topology::connect`]
/// (a few metres of copper).
pub const DEFAULT_PROPAGATION: SimDuration = SimDuration::from_nanos(50);

/// A network of switches and hosts joined by point-to-point links.
///
/// Ports are allocated implicitly: each call to [`Topology::connect`] (or
/// its variants) takes the next free port number on both endpoints, the way
/// cabling up a testbed does.
///
/// # Example
///
/// ```
/// use tsn_topology::Topology;
/// use tsn_types::DataRate;
///
/// let mut topo = Topology::new();
/// let sw = topo.add_switch("sw0");
/// let a = topo.add_host("talker");
/// let b = topo.add_host("listener");
/// topo.connect(a, sw, DataRate::gbps(1))?;
/// topo.connect(sw, b, DataRate::gbps(1))?;
/// let route = topo.route(a, b)?;
/// assert_eq!(route.switch_hops(), 1);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// `ports[node][port]` is the link attached to that port.
    ports: Vec<Vec<LinkId>>,
    // Node-kind index lists, maintained on insert so `switches()` /
    // `hosts()` are allocation-free — they sit in loops all over the
    // builder and verifier.
    switch_ids: Vec<NodeId>,
    host_ids: Vec<NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name)
    }

    /// Adds a host (end device) and returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name)
    }

    fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, kind, name));
        self.ports.push(Vec::new());
        match kind {
            NodeKind::Switch => self.switch_ids.push(id),
            NodeKind::Host => self.host_ids.push(id),
        }
        id
    }

    /// Connects two nodes with a bidirectional link at `rate` and the
    /// default propagation delay.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::UnknownNode`] if either endpoint does not exist,
    /// or [`TsnError::InvalidParameter`] for a self-link or zero rate.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate: DataRate) -> TsnResult<LinkId> {
        self.connect_with(
            a,
            b,
            rate,
            DEFAULT_PROPAGATION,
            LinkDirection::Bidirectional,
        )
    }

    /// Connects two nodes with full control over propagation delay and
    /// direction. For [`LinkDirection::AToB`], frames can only flow from
    /// `a` to `b`.
    ///
    /// # Errors
    ///
    /// As [`Topology::connect`].
    pub fn connect_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate: DataRate,
        propagation: SimDuration,
        direction: LinkDirection,
    ) -> TsnResult<LinkId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TsnError::invalid_parameter(
                "link",
                "self-links are not allowed",
            ));
        }
        if rate.is_zero() {
            return Err(TsnError::invalid_parameter(
                "rate",
                "links must have a non-zero rate",
            ));
        }
        let id = LinkId::new(self.links.len() as u32);
        let port_a = PortId::new(self.ports[a.as_usize()].len() as u16);
        let port_b = PortId::new(self.ports[b.as_usize()].len() as u16);
        let link = Link::new(
            id,
            LinkEnd {
                node: a,
                port: port_a,
            },
            LinkEnd {
                node: b,
                port: port_b,
            },
            rate,
            propagation,
            direction,
        );
        self.ports[a.as_usize()].push(id);
        self.ports[b.as_usize()].push(id);
        self.links.push(link);
        Ok(id)
    }

    fn check_node(&self, id: NodeId) -> TsnResult<()> {
        if id.as_usize() < self.nodes.len() {
            Ok(())
        } else {
            Err(TsnError::UnknownNode(id))
        }
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::UnknownNode`] if the id is out of range.
    pub fn node(&self, id: NodeId) -> TsnResult<&Node> {
        self.nodes
            .get(id.as_usize())
            .ok_or(TsnError::UnknownNode(id))
    }

    /// All nodes, in creation order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Ids of all switches, in creation order. The list is cached at
    /// construction, so calling this in a loop is free.
    #[must_use]
    pub fn switches(&self) -> &[NodeId] {
        &self.switch_ids
    }

    /// Ids of all hosts, in creation order. The list is cached at
    /// construction, so calling this in a loop is free.
    #[must_use]
    pub fn hosts(&self) -> &[NodeId] {
        &self.host_ids
    }

    /// All links, in creation order.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a link by id.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index() as usize)
    }

    /// Number of cabled ports on `node` (0 if the node does not exist).
    #[must_use]
    pub fn port_count(&self, node: NodeId) -> usize {
        self.ports.get(node.as_usize()).map_or(0, Vec::len)
    }

    /// The link attached to `(node, port)`.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::UnknownNode`] / [`TsnError::UnknownPort`] when
    /// the endpoint does not exist.
    pub fn link_at(&self, node: NodeId, port: PortId) -> TsnResult<&Link> {
        self.check_node(node)?;
        let link_id = self.ports[node.as_usize()]
            .get(port.as_usize())
            .copied()
            .ok_or(TsnError::UnknownPort { node, port })?;
        Ok(&self.links[link_id.index() as usize])
    }

    /// Computes a shortest path from `from` to `to` by hop count (BFS),
    /// honouring unidirectional links.
    ///
    /// # Errors
    ///
    /// * [`TsnError::UnknownNode`] if either endpoint does not exist.
    /// * [`TsnError::NoRoute`] if `to` is unreachable from `from`.
    pub fn route(&self, from: NodeId, to: NodeId) -> TsnResult<Route> {
        self.route_avoiding(from, to, |_| false)
    }

    /// Like [`route`](Topology::route), but links for which `blocked` returns
    /// `true` are treated as cut — the failover primitive used by the
    /// simulator's fault engine to steer traffic around down links.
    ///
    /// # Errors
    ///
    /// * [`TsnError::UnknownNode`] if either endpoint does not exist.
    /// * [`TsnError::NoRoute`] if every path crosses a blocked link.
    pub fn route_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        blocked: impl Fn(LinkId) -> bool,
    ) -> TsnResult<Route> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Ok(self.trivial_route(from));
        }
        // Early exit: the BFS prefix explored before the target is
        // discovered is identical to the full tree's, so the extracted
        // route matches what `routes_from_avoiding` would produce.
        let tree = self.bfs_tree(from, &blocked, Some(to));
        tree.extract(self, to)
    }

    /// Computes the shortest-path tree from `from` to *every* reachable
    /// node in one BFS. One tree amortizes route extraction across all of
    /// a talker's flows — [`RouteTree::route`] yields exactly the route
    /// [`Topology::route`] would return, in O(path) per destination.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::UnknownNode`] if `from` does not exist.
    pub fn routes_from(&self, from: NodeId) -> TsnResult<RouteTree> {
        self.routes_from_avoiding(from, |_| false)
    }

    /// Like [`routes_from`](Topology::routes_from), but links for which
    /// `blocked` returns `true` are treated as cut.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::UnknownNode`] if `from` does not exist.
    pub fn routes_from_avoiding(
        &self,
        from: NodeId,
        blocked: impl Fn(LinkId) -> bool,
    ) -> TsnResult<RouteTree> {
        self.check_node(from)?;
        Ok(self.bfs_tree(from, &blocked, None))
    }

    fn trivial_route(&self, node: NodeId) -> Route {
        let kind = self.nodes[node.as_usize()].kind();
        Route::new(vec![RouteHop {
            node,
            kind,
            ingress: None,
            egress: None,
        }])
    }

    // BFS, remembering (previous node, egress port there, ingress port
    // here) per discovered node. With `target` set the search stops at
    // discovery; the prefix explored up to that point is the same as the
    // full tree's, so single-route and all-routes extraction agree.
    fn bfs_tree(
        &self,
        from: NodeId,
        blocked: &impl Fn(LinkId) -> bool,
        target: Option<NodeId>,
    ) -> RouteTree {
        let mut prev: Vec<Option<(NodeId, PortId, PortId)>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        visited[from.as_usize()] = true;
        let mut queue = VecDeque::from([from]);
        'search: while let Some(current) = queue.pop_front() {
            let ports = self
                .ports
                .get(current.as_usize())
                .map_or(&[][..], Vec::as_slice);
            for (port_idx, link_id) in ports.iter().enumerate() {
                let link = &self.links[link_id.index() as usize];
                if blocked(*link_id) || !link.allows_egress_from(current) {
                    continue;
                }
                let Some(peer) = link.peer_of(current) else {
                    continue;
                };
                let egress = PortId::new(port_idx as u16);
                if !visited[peer.node.as_usize()] {
                    visited[peer.node.as_usize()] = true;
                    prev[peer.node.as_usize()] = Some((current, egress, peer.port));
                    if Some(peer.node) == target {
                        break 'search;
                    }
                    queue.push_back(peer.node);
                }
            }
        }
        RouteTree {
            from,
            prev,
            visited,
        }
    }

    /// The host attached to a switch through the first host-facing link, if
    /// any. Convenience for preset topologies where each switch has at most
    /// one host.
    #[must_use]
    pub fn host_of_switch(&self, switch: NodeId) -> Option<NodeId> {
        self.ports.get(switch.as_usize())?.iter().find_map(|lid| {
            let link = &self.links[lid.index() as usize];
            let peer = link.peer_of(switch)?;
            self.nodes
                .get(peer.node.as_usize())
                .filter(|n| n.is_host())
                .map(|_| peer.node)
        })
    }

    /// The switch a host is attached to (its first switch-facing link).
    #[must_use]
    pub fn switch_of_host(&self, host: NodeId) -> Option<NodeId> {
        self.ports.get(host.as_usize())?.iter().find_map(|lid| {
            let link = &self.links[lid.index() as usize];
            let peer = link.peer_of(host)?;
            self.nodes
                .get(peer.node.as_usize())
                .filter(|n| n.is_switch())
                .map(|_| peer.node)
        })
    }
}

/// A shortest-path (BFS) tree rooted at one source node.
///
/// Produced by [`Topology::routes_from`]; extracting the route to any
/// destination is O(path length), so installing all of one talker's flows
/// costs a single BFS instead of one per flow.
///
/// # Example
///
/// ```
/// use tsn_topology::presets;
///
/// let topo = presets::ring(4, 4)?;
/// let hosts = topo.hosts();
/// let tree = topo.routes_from(hosts[0])?;
/// for &dst in &hosts[1..] {
///     let batched = tree.route(&topo, dst)?;
///     let direct = topo.route(hosts[0], dst)?;
///     assert_eq!(batched.hops(), direct.hops());
/// }
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteTree {
    from: NodeId,
    prev: Vec<Option<(NodeId, PortId, PortId)>>,
    visited: Vec<bool>,
}

impl RouteTree {
    /// The tree's source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.from
    }

    /// `true` when `to` is reachable from the source.
    #[must_use]
    pub fn reaches(&self, to: NodeId) -> bool {
        self.visited.get(to.as_usize()).copied().unwrap_or(false)
    }

    /// Extracts the route from the source to `to`. Byte-identical to
    /// [`Topology::route`] over the same (unmutated) topology.
    ///
    /// # Errors
    ///
    /// * [`TsnError::UnknownNode`] if `to` does not exist.
    /// * [`TsnError::NoRoute`] if `to` is unreachable.
    pub fn route(&self, topology: &Topology, to: NodeId) -> TsnResult<Route> {
        topology.check_node(to)?;
        if to == self.from {
            return Ok(topology.trivial_route(to));
        }
        self.extract(topology, to)
    }

    // Walk back from the destination along the prev-pointers.
    fn extract(&self, topology: &Topology, to: NodeId) -> TsnResult<Route> {
        if !self.reaches(to) {
            return Err(TsnError::NoRoute {
                from: self.from,
                to,
            });
        }
        let mut rev: Vec<(NodeId, Option<PortId>, Option<PortId>)> = Vec::new();
        let mut cursor = to;
        let mut downstream_ingress: Option<PortId> = None;
        loop {
            match self.prev[cursor.as_usize()] {
                Some((parent, egress_at_parent, ingress_here)) => {
                    rev.push((cursor, Some(ingress_here), downstream_ingress.take()));
                    // The hop we just recorded leaves through... handled below:
                    // store parent's egress so the *parent* entry gets it.
                    downstream_ingress = Some(egress_at_parent);
                    cursor = parent;
                }
                None => {
                    rev.push((cursor, None, downstream_ingress.take()));
                    break;
                }
            }
        }
        rev.reverse();
        let hops = rev
            .into_iter()
            .map(|(node, ingress, egress)| RouteHop {
                node,
                kind: topology.nodes[node.as_usize()].kind(),
                ingress,
                egress,
            })
            .collect();
        Ok(Route::new(hops))
    }
}

/// A bounded cache of [`RouteTree`]s keyed by talker, for routing many
/// flows that share sources without re-running BFS per flow **or**
/// holding one tree per talker alive forever.
///
/// A tree costs O(nodes) memory, so caching every talker of a large
/// plant (thousands of hosts over a 10⁴-node graph) would cost
/// O(talkers × nodes) — quadratic in plant size. The cache instead
/// holds at most [`RouteTreeCache::CAPACITY`] trees and clears itself
/// when full; callers that group their flows by talker (all workload
/// generators here do) re-run at most one extra BFS per talker per
/// clear. The routes produced are identical regardless of cache hits.
///
/// # Example
///
/// ```
/// use tsn_topology::{presets, RouteTreeCache};
///
/// let topo = presets::ring(4, 4)?;
/// let hosts = topo.hosts();
/// let mut cache = RouteTreeCache::new();
/// let route = cache.route(&topo, hosts[0], hosts[1])?;
/// assert_eq!(route.hops(), topo.route(hosts[0], hosts[1])?.hops());
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug)]
pub struct RouteTreeCache {
    trees: std::collections::BTreeMap<NodeId, RouteTree>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for RouteTreeCache {
    fn default() -> Self {
        RouteTreeCache::new()
    }
}

impl RouteTreeCache {
    /// Default tree bound; one tree is O(nodes), so the default cache
    /// footprint stays O(CAPACITY × nodes) no matter how many talkers
    /// stream through it. [`RouteTreeCache::with_capacity`] scales the
    /// bound to the scenario so large plants don't thrash it.
    pub const CAPACITY: usize = 64;

    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        RouteTreeCache::with_capacity(Self::CAPACITY)
    }

    /// An empty cache bounded at `capacity` trees (clamped to at least
    /// [`RouteTreeCache::CAPACITY`]). Size it to the distinct-talker
    /// count of the scenario: a cache that holds every talker's tree
    /// never evicts, so installation runs exactly one BFS per talker.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RouteTreeCache {
            trees: std::collections::BTreeMap::new(),
            capacity: capacity.max(Self::CAPACITY),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The tree bound this cache runs with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Routes served from a cached tree.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Routes that had to run a fresh BFS.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whole-cache flushes forced by the capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The cached tree rooted at `from`, running BFS on a miss.
    ///
    /// # Errors
    ///
    /// [`TsnError::UnknownNode`] if `from` does not exist.
    pub fn tree(&mut self, topology: &Topology, from: NodeId) -> TsnResult<&RouteTree> {
        use std::collections::btree_map::Entry;
        match self.trees.entry(from) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(topology.routes_from(from)?)),
        }
    }

    /// Routes `from → to` through the cached tree. Byte-identical to
    /// [`Topology::route`].
    ///
    /// # Errors
    ///
    /// As [`Topology::route`].
    pub fn route(&mut self, topology: &Topology, from: NodeId, to: NodeId) -> TsnResult<Route> {
        if self.trees.contains_key(&from) {
            self.hits += 1;
        } else {
            if self.trees.len() >= self.capacity {
                self.trees.clear();
                self.evictions += 1;
            }
            self.misses += 1;
        }
        self.tree(topology, from)?.route(topology, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // hostA - sw0 - sw1 - sw2 - hostB
        let mut t = Topology::new();
        let s0 = t.add_switch("sw0");
        let s1 = t.add_switch("sw1");
        let s2 = t.add_switch("sw2");
        let ha = t.add_host("hostA");
        let hb = t.add_host("hostB");
        t.connect(ha, s0, DataRate::gbps(1)).expect("link");
        t.connect(s0, s1, DataRate::gbps(1)).expect("link");
        t.connect(s1, s2, DataRate::gbps(1)).expect("link");
        t.connect(s2, hb, DataRate::gbps(1)).expect("link");
        (t, s0, s1, s2, ha, hb)
    }

    #[test]
    fn connect_assigns_sequential_ports() {
        let (t, s0, s1, _, ha, _) = line3();
        assert_eq!(t.port_count(ha), 1);
        assert_eq!(t.port_count(s0), 2);
        assert_eq!(t.port_count(s1), 2);
        let l = t.link_at(s0, PortId::new(0)).expect("port 0 cabled");
        assert_eq!(l.peer_of(s0).map(|e| e.node), Some(ha));
    }

    #[test]
    fn connect_rejects_bad_input() {
        let mut t = Topology::new();
        let s = t.add_switch("sw");
        assert!(matches!(
            t.connect(s, NodeId::new(9), DataRate::gbps(1)),
            Err(TsnError::UnknownNode(_))
        ));
        assert!(t.connect(s, s, DataRate::gbps(1)).is_err());
        let h = t.add_host("h");
        assert!(t.connect(s, h, DataRate::ZERO).is_err());
    }

    #[test]
    fn route_end_to_end_traverses_all_switches() {
        let (t, s0, s1, s2, ha, hb) = line3();
        let r = t.route(ha, hb).expect("path exists");
        assert_eq!(r.switch_hops(), 3);
        assert_eq!(r.src(), ha);
        assert_eq!(r.dst(), hb);
        let nodes: Vec<NodeId> = r.hops().iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![ha, s0, s1, s2, hb]);
        // Source has no ingress; destination has no egress; middles have both.
        assert!(r.hops()[0].ingress.is_none());
        assert!(r.hops()[0].egress.is_some());
        assert!(r.hops()[4].egress.is_none());
        assert!(r.hops()[4].ingress.is_some());
        for hop in &r.hops()[1..4] {
            assert!(hop.ingress.is_some() && hop.egress.is_some());
        }
    }

    #[test]
    fn route_ports_are_consistent_with_links() {
        let (t, _, _, _, ha, hb) = line3();
        let r = t.route(ha, hb).expect("path exists");
        for pair in r.hops().windows(2) {
            let (up, down) = (&pair[0], &pair[1]);
            let egress = up.egress.expect("non-terminal hop has egress");
            let link = t.link_at(up.node, egress).expect("egress port is cabled");
            let peer = link.peer_of(up.node).expect("link has a peer");
            assert_eq!(peer.node, down.node);
            assert_eq!(Some(peer.port), down.ingress);
        }
    }

    #[test]
    fn route_to_self_is_trivial() {
        let (t, s0, ..) = line3();
        let r = t.route(s0, s0).expect("trivial route");
        assert!(r.is_empty());
        assert_eq!(r.switch_hops(), 1);
    }

    #[test]
    fn unreachable_destination_reports_no_route() {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        assert!(matches!(t.route(a, b), Err(TsnError::NoRoute { .. })));
    }

    #[test]
    fn unidirectional_links_are_respected() {
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        t.connect_with(
            s0,
            s1,
            DataRate::gbps(1),
            DEFAULT_PROPAGATION,
            LinkDirection::AToB,
        )
        .expect("link");
        assert!(t.route(s0, s1).is_ok());
        assert!(matches!(t.route(s1, s0), Err(TsnError::NoRoute { .. })));
    }

    #[test]
    fn route_avoiding_detours_around_blocked_links() {
        // Square of switches: two disjoint s0→s3 paths (via s1 or s2).
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let s2 = t.add_switch("s2");
        let s3 = t.add_switch("s3");
        let l01 = t.connect(s0, s1, DataRate::gbps(1)).expect("link");
        t.connect(s1, s3, DataRate::gbps(1)).expect("link");
        t.connect(s0, s2, DataRate::gbps(1)).expect("link");
        t.connect(s2, s3, DataRate::gbps(1)).expect("link");

        let healthy = t.route(s0, s3).expect("path exists");
        assert_eq!(healthy.hops()[1].node, s1, "BFS prefers the first cable");

        let detour = t.route_avoiding(s0, s3, |l| l == l01).expect("detour");
        let nodes: Vec<NodeId> = detour.hops().iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![s0, s2, s3]);

        // Blocking both upper and lower first hops severs the pair.
        assert!(matches!(
            t.route_avoiding(s0, s3, |l| l.index() != 3),
            Err(TsnError::NoRoute { .. })
        ));
    }

    #[test]
    fn route_tree_matches_per_pair_routes() {
        // Square with two equal-cost paths plus a directed ring tail:
        // exercises tie-breaking and unidirectional links.
        let mut t = Topology::new();
        let s: Vec<NodeId> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        t.connect(s[0], s[1], DataRate::gbps(1)).expect("link");
        t.connect(s[1], s[3], DataRate::gbps(1)).expect("link");
        t.connect(s[0], s[2], DataRate::gbps(1)).expect("link");
        t.connect(s[2], s[3], DataRate::gbps(1)).expect("link");
        let h = t.add_host("h");
        t.connect(s[3], h, DataRate::gbps(1)).expect("link");

        for &from in s.iter().chain([&h]) {
            let tree = t.routes_from(from).expect("tree");
            assert_eq!(tree.source(), from);
            for &to in s.iter().chain([&h]) {
                let direct = t.route(from, to).expect("route");
                let batched = tree.route(&t, to).expect("tree route");
                assert_eq!(direct.hops(), batched.hops(), "{from}->{to}");
            }
        }
    }

    #[test]
    fn route_tree_avoiding_matches_and_reports_unreachable() {
        let (t, s0, _, _, ha, hb) = line3();
        let l = t.link_at(s0, PortId::new(1)).expect("s0-s1 cabled").id();
        let tree = t.routes_from_avoiding(ha, |lid| lid == l).expect("tree");
        assert!(!tree.reaches(hb));
        assert!(matches!(tree.route(&t, hb), Err(TsnError::NoRoute { .. })));
        assert!(matches!(
            t.route_avoiding(ha, hb, |lid| lid == l),
            Err(TsnError::NoRoute { .. })
        ));
        // Self-route through the tree is the same trivial route.
        assert!(tree.route(&t, ha).expect("trivial").is_empty());
    }

    #[test]
    fn host_switch_attachment_lookup() {
        let (t, s0, s1, _, ha, _) = line3();
        assert_eq!(t.switch_of_host(ha), Some(s0));
        assert_eq!(t.host_of_switch(s0), Some(ha));
        assert_eq!(t.host_of_switch(s1), None);
    }

    #[test]
    fn ring_routes_take_the_allowed_direction() {
        // 3-switch directed ring: 0 -> 1 -> 2 -> 0.
        let mut t = Topology::new();
        let s: Vec<NodeId> = (0..3).map(|i| t.add_switch(format!("s{i}"))).collect();
        for i in 0..3 {
            t.connect_with(
                s[i],
                s[(i + 1) % 3],
                DataRate::gbps(1),
                DEFAULT_PROPAGATION,
                LinkDirection::AToB,
            )
            .expect("link");
        }
        // Going "backwards" must walk the long way around.
        let r = t.route(s[2], s[1]).expect("route exists the long way");
        let nodes: Vec<NodeId> = r.hops().iter().map(|h| h.node).collect();
        assert_eq!(nodes, vec![s[2], s[0], s[1]]);
    }
}
