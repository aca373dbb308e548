//! Property-style tests over seeded random topologies: routing sanity
//! and enabled-port bounds. Deterministic — every run checks the same
//! generated topology family.

use tsn_topology::{presets, NodeKind, Topology};
use tsn_types::{DataRate, NodeId, SplitMix64};

/// A random connected topology: a host-and-switch tree plus a few extra
/// cross links, generated from `rng`.
fn random_topology(rng: &mut SplitMix64) -> Topology {
    let switches = rng.gen_range_in(2, 12) as usize;
    let extras: Vec<u16> = (0..rng.gen_range(8))
        .map(|_| rng.next_u64() as u16)
        .collect();
    let hosts = rng.gen_range_in(1, 6) as usize;

    let mut topo = Topology::new();
    let sw: Vec<NodeId> = (0..switches)
        .map(|i| topo.add_switch(format!("s{i}")))
        .collect();
    // Random tree: node i attaches to a previous node.
    for i in 1..switches {
        let parent = (extras.first().copied().unwrap_or(0) as usize + i * 7) % i;
        topo.connect(sw[parent], sw[i], DataRate::gbps(1))
            .expect("tree link");
    }
    // Extra cross links (connect allows parallel links, which is fine).
    for (k, seed) in extras.iter().enumerate() {
        let a = (*seed as usize) % switches;
        let b = (*seed as usize / 7 + k) % switches;
        if a != b {
            topo.connect(sw[a], sw[b], DataRate::gbps(1))
                .expect("cross link");
        }
    }
    for (h, &attach) in sw.iter().enumerate().take(hosts.min(switches)) {
        let host = topo.add_host(format!("h{h}"));
        topo.connect(host, attach, DataRate::gbps(1))
            .expect("host link");
    }
    topo
}

/// Every pair of nodes in a connected topology routes, the route is
/// loop-free, starts/ends correctly, and its hop ports are cabled
/// consistently.
#[test]
fn routes_are_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0x70b0);
    for _ in 0..32 {
        let topo = random_topology(&mut rng);
        let nodes: Vec<NodeId> = topo.nodes().iter().map(|n| n.id()).collect();
        for &from in &nodes {
            for &to in &nodes {
                let route = topo.route(from, to).expect("connected graph routes");
                assert_eq!(route.src(), from);
                assert_eq!(route.dst(), to);
                // Loop-free: nodes are unique.
                let mut seen = std::collections::HashSet::new();
                for hop in route.hops() {
                    assert!(seen.insert(hop.node), "route revisits {}", hop.node);
                }
                // Ports connect adjacent hops.
                for pair in route.hops().windows(2) {
                    let egress = pair[0].egress.expect("non-terminal hop has egress");
                    let link = topo.link_at(pair[0].node, egress).expect("cabled");
                    assert_eq!(
                        link.peer_of(pair[0].node).expect("two ends").node,
                        pair[1].node
                    );
                }
            }
        }
    }
}

/// BFS routes are minimal: no route is longer than the node count, and a
/// direct neighbour is always reached in one step.
#[test]
fn routes_are_short() {
    let mut rng = SplitMix64::seed_from_u64(0x5407);
    for _ in 0..32 {
        let topo = random_topology(&mut rng);
        let nodes: Vec<NodeId> = topo.nodes().iter().map(|n| n.id()).collect();
        for &from in &nodes {
            for &to in &nodes {
                let route = topo.route(from, to).expect("routes");
                assert!(route.len() <= nodes.len());
            }
        }
        for link in topo.links() {
            let (a, b) = (link.a().node, link.b().node);
            if link.allows_egress_from(a) {
                let route = topo.route(a, b).expect("neighbours route");
                assert_eq!(route.len(), 2, "direct neighbours: 1 hop");
            }
        }
    }
}

/// Enabled TSN ports never exceed the switch's cabled port count.
#[test]
fn enabled_ports_bounded_by_degree() {
    use tsn_topology::EnabledPorts;
    let mut rng = SplitMix64::seed_from_u64(0xe4ab);
    let mut tested = 0;
    while tested < 32 {
        let topo = random_topology(&mut rng);
        let flow_count = rng.gen_range_in(1, 16) as usize;
        let hosts = topo.hosts();
        if hosts.len() < 2 {
            continue;
        }
        tested += 1;
        let routes: Vec<_> = (0..flow_count)
            .map(|id| {
                topo.route(hosts[id % hosts.len()], hosts[(id + 1) % hosts.len()])
                    .expect("analysis runs")
            })
            .collect();
        let enabled = EnabledPorts::from_routes(&topo, &routes);
        for (node, count) in enabled.iter() {
            assert!(count <= topo.port_count(node));
            assert!(
                topo.node(node).expect("exists").kind() == NodeKind::Switch,
                "only switches enable TSN ports"
            );
        }
    }
}

#[test]
fn preset_shapes_are_stable() {
    // Pin the preset geometry the experiments depend on.
    for (topo, switches, hosts, links) in [
        (presets::ring(6, 3).expect("builds"), 6, 3, 9),
        (presets::linear(6, 2).expect("builds"), 6, 2, 7),
        (presets::star(3, 3).expect("builds"), 4, 3, 6),
    ] {
        assert_eq!(topo.switches().len(), switches);
        assert_eq!(topo.hosts().len(), hosts);
        assert_eq!(topo.links().len(), links);
    }
}
