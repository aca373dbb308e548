//! Large-plant scenario family — the customization flow at 10⁴…10⁶ flows.
//!
//! The paper evaluates TSN-Builder on cell-sized networks (≤ 6 switches).
//! This module models the other end of the deployment spectrum: a whole
//! factory commissioned at once, built from production *cells* (small
//! bidirectional switch rings with local controllers) joined by a gateway
//! backbone ring ([`tsn_topology::presets::multi_ring`]). Traffic is
//! mostly cell-local — each controller streams to the next one in its
//! cell — with a fixed fraction of supervisory flows crossing into the
//! neighbouring cell over the backbone.
//!
//! Everything here is O(flows) or O(talkers × cell): flows are generated
//! arithmetically (no RNG, no per-flow routing), injection offsets are
//! spread uniformly over the CQF slots of one period instead of running
//! the O(flows × slots) greedy planner, and the switch resources are
//! sized by a single counting pass over the routed hops (the same
//! guideline-(1)/(4) derivation the paper does, at plant scale). Sizing
//! streams the flows through a [`tsn_topology::FlowRouter`] and keeps no
//! route, so peak routing memory stays O(talkers × nodes).
//!
//! # Example
//!
//! ```
//! use tsn_builder::plant;
//!
//! let plant = plant::large_plant(256)?;
//! assert_eq!(plant.flows.len(), 256);
//! let report = plant.into_network()?.run();
//! assert_eq!(report.ts_lost(), 0);
//! # Ok::<(), tsn_types::TsnError>(())
//! ```

use std::collections::BTreeSet;
use tsn_resource::ResourceConfig;
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_topology::{presets, FlowRouter, Topology};
use tsn_types::{FlowId, FlowMap, FlowSet, NodeId, SimDuration, TsFlowSpec, TsnError, TsnResult};

/// TS period shared by every plant flow (the IEC 60802 default).
pub const PLANT_PERIOD: SimDuration = SimDuration::from_millis(10);
/// Deadline shared by every plant flow — wide enough for the longest
/// cross-cell CQF path at the 65 µs slot.
pub const PLANT_DEADLINE: SimDuration = SimDuration::from_millis(8);
/// One flow in [`CROSS_EVERY`] leaves its cell for the next one.
pub const CROSS_EVERY: u32 = 16;

/// Geometry picked for a flow-count target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantDims {
    /// Production cells (each one ring in the backbone).
    pub cells: usize,
    /// Switches per cell ring.
    pub ring_size: usize,
    /// Controller hosts per cell. 7 is deliberate: it is coprime to the
    /// 4000-VLAN wheel of [`tsn_sim::network::vlan_for`], so two flows
    /// between the same host pair never collide on a classification key
    /// within a cell's flow range.
    pub hosts_per_cell: usize,
}

impl PlantDims {
    /// Sizes the plant so each cell carries ~1k flows: 10k flows → 10
    /// cells (87 nodes), 100k → 98 cells, 1M → 977 cells (~14.7k nodes).
    #[must_use]
    pub fn for_flows(flow_count: u32) -> Self {
        PlantDims {
            cells: (flow_count as usize).div_ceil(1024).max(1),
            ring_size: 8,
            hosts_per_cell: 7,
        }
    }

    /// Flows assigned to each cell (the last cell may get fewer).
    #[must_use]
    pub fn flows_per_cell(&self, flow_count: u32) -> u32 {
        flow_count.div_ceil(self.cells as u32).max(1)
    }
}

/// A ready-to-run plant: topology, workload, injection plan and a
/// counting-pass-sized [`SimConfig`].
#[derive(Debug, Clone)]
pub struct LargePlant {
    /// The multi-ring plant network.
    pub topology: Topology,
    /// Cell-major TS flows (all of cell 0's flows, then cell 1's, …).
    pub flows: FlowSet,
    /// Uniform-spread injection offsets, one per flow.
    pub offsets: FlowMap<SimDuration>,
    /// One-period duration, perfect sync, counting-pass resources.
    pub config: SimConfig,
    /// The geometry the flow count selected.
    pub dims: PlantDims,
}

impl LargePlant {
    /// Builds the simulation network (consumes the plant — flow sets at
    /// this scale are worth not cloning).
    ///
    /// # Errors
    ///
    /// Propagates [`Network::build`] validation.
    pub fn into_network(self) -> TsnResult<Network> {
        Network::build(self.topology, self.flows, &self.offsets, self.config)
    }
}

/// Generates the plant family member with `flow_count` TS flows.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] for `flow_count == 0`;
/// propagates topology/flow validation.
pub fn large_plant(flow_count: u32) -> TsnResult<LargePlant> {
    if flow_count == 0 {
        return Err(TsnError::invalid_parameter(
            "flow_count",
            "a plant needs at least one flow",
        ));
    }
    let dims = PlantDims::for_flows(flow_count);
    let topology = presets::multi_ring(dims.cells, dims.ring_size, dims.hosts_per_cell)?;
    let hosts = topology.hosts();
    let hpc = dims.hosts_per_cell;
    let per_cell = dims.flows_per_cell(flow_count);

    // Cell-major, arithmetic flow generation: flow i lives in cell
    // i / per_cell with local index j = i % per_cell, streams from host
    // j mod 7 to the next host — in the same cell, or (every 16th flow)
    // in the next cell over the backbone. Cell-major order keeps each
    // talker's flows clustered, which is what makes the bounded
    // route-tree cache hit ~always during install.
    let host_of = |cell: usize, h: usize| hosts[cell * hpc + h];
    let mut flows = FlowSet::new();
    let mut offsets = FlowMap::with_capacity(flow_count as usize);
    // Spread each cell's injections over the CQF slots of one period.
    let slot = SimDuration::from_micros(65);
    let spread = (PLANT_PERIOD.as_nanos() / slot.as_nanos()) as u32;
    for i in 0..flow_count {
        let cell = (i / per_cell) as usize;
        let j = i % per_cell;
        let src = host_of(cell, (j as usize) % hpc);
        let cross = dims.cells > 1 && j % CROSS_EVERY == CROSS_EVERY - 1;
        let dst_cell = if cross { (cell + 1) % dims.cells } else { cell };
        let dst = host_of(dst_cell, (j as usize + 1) % hpc);
        let id = FlowId::new(i);
        flows.push(TsFlowSpec::new(id, src, dst, PLANT_PERIOD, PLANT_DEADLINE, 64)?.into());
        offsets.insert(
            id,
            SimDuration::from_nanos(slot.as_nanos() * u64::from(j % spread)),
        );
    }

    let resources = size_resources(&topology, &flows)?;
    let mut config = SimConfig::paper_defaults();
    config.slot = slot;
    config.resources = resources;
    config.duration = PLANT_PERIOD; // one frame per flow per run
    config.drain = SimDuration::from_millis(2);
    config.sync = SyncSetup::Perfect;
    config.aggregate_switch_tbl = true; // guideline (1) at plant scale

    Ok(LargePlant {
        topology,
        flows,
        offsets,
        config,
        dims,
    })
}

/// One counting pass over the routed hops: per-switch classification
/// entries and distinct destinations determine the table sizes exactly,
/// the way `derive_parameters` sizes them from the flow count on small
/// scenarios.
fn size_resources(topology: &Topology, flows: &FlowSet) -> TsnResult<ResourceConfig> {
    let node_count = topology.nodes().len();
    let mut class_entries = vec![0u32; node_count];
    let mut dsts: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); node_count];
    let mut router = FlowRouter::new(topology);
    for flow in flows.iter() {
        let route = router.route(flow)?;
        for hop in route.switch_hops_iter() {
            let idx = hop.node.as_usize();
            class_entries[idx] += 1;
            dsts[idx].insert(flow.dst());
        }
    }
    let max_class = class_entries.iter().copied().max().unwrap_or(0);
    let max_dst = dsts.iter().map(BTreeSet::len).max().unwrap_or(0) as u32;
    let max_ports = topology
        .switches()
        .iter()
        .map(|&sw| topology.port_count(sw) as u32)
        .max()
        .unwrap_or(1);

    let mut resources = ResourceConfig::new();
    resources
        .set_switch_tbl(max_dst.max(16).next_power_of_two(), 0)?
        .set_class_tbl(max_class.max(16).next_power_of_two())?
        .set_meter_tbl(16)? // no rate-constrained plant flows
        .set_gate_tbl(2, 8, max_ports)?
        .set_cbs_tbl(1, 1, max_ports)?
        .set_queues(32, 8, max_ports)?
        .set_buffers(256, max_ports)?;
    Ok(resources)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_scale_with_the_flow_count() {
        assert_eq!(PlantDims::for_flows(10_000).cells, 10);
        assert_eq!(PlantDims::for_flows(100_000).cells, 98);
        assert_eq!(PlantDims::for_flows(1_000_000).cells, 977);
    }

    #[test]
    fn small_plant_runs_without_loss_or_misses() {
        let plant = large_plant(512).expect("plant builds");
        assert_eq!(plant.flows.len(), 512);
        let report = plant.into_network().expect("network builds").run();
        assert_eq!(report.ts_injected(), 512, "one frame per flow");
        assert_eq!(report.ts_lost(), 0);
        assert_eq!(report.ts_deadline_misses(), 0);
        assert!(report.ts_p99().is_some());
    }

    #[test]
    fn cross_cell_flows_really_cross() {
        let plant = large_plant(2048).expect("plant builds");
        let crossings = plant
            .flows
            .ts_flows()
            .filter(|f| {
                let src = plant.topology.switch_of_host(f.src()).expect("cabled");
                let dst = plant.topology.switch_of_host(f.dst()).expect("cabled");
                let route = plant.topology.route(f.src(), f.dst()).expect("routes");
                route.switch_hops() >= 2 && src != dst
            })
            .count();
        assert!(crossings > 0, "plant traffic is not all single-switch");
        let cross_cell = plant
            .flows
            .ts_flows()
            .filter(|f| {
                // Hosts are cell-major: integer-dividing the host index
                // by hosts_per_cell recovers the cell.
                let hosts = plant.topology.hosts();
                let cell_of = |n| {
                    hosts.iter().position(|&h| h == n).expect("host") / plant.dims.hosts_per_cell
                };
                cell_of(f.src()) != cell_of(f.dst())
            })
            .count();
        assert_eq!(
            cross_cell,
            (plant.flows.len() as u32 / CROSS_EVERY) as usize
        );
    }

    #[test]
    fn classification_keys_never_collide() {
        use std::collections::BTreeSet;
        let plant = large_plant(4096).expect("plant builds");
        let mut keys = BTreeSet::new();
        for f in plant.flows.ts_flows() {
            let vlan = tsn_sim::network::vlan_for(f.id());
            assert!(
                keys.insert((f.src(), f.dst(), vlan)),
                "flow {} reuses a (src, dst, vlan) classification key",
                f.id()
            );
        }
    }

    #[test]
    fn offsets_spread_over_the_period() {
        let plant = large_plant(1024).expect("plant builds");
        let distinct: BTreeSet<_> = plant.offsets.values().copied().collect();
        assert!(
            distinct.len() > 100,
            "injections spread over many slots, got {}",
            distinct.len()
        );
        for &offset in &distinct {
            assert!(offset < PLANT_PERIOD, "offsets stay inside one period");
        }
    }
}
