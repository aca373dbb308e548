//! The network runner: topology + switches + hosts + event loop.
//!
//! [`Network::build`] assembles a complete simulated TSN network from a
//! topology, a per-switch [`tsn_resource::ResourceConfig`], and a
//! [`tsn_types::FlowSet`]: it derives port roles, programs forwarding /
//! classification / meter / shaper state on every switch (the run-time
//! configuration the paper's embedded CPU performs), attaches TSNNic-style
//! generators to the hosts, and pre-converges a gPTP domain. [`Network::run`]
//! then executes the discrete-event loop and returns a [`SimReport`].

use crate::analyzer::Analyzer;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultConfig, FaultEngine, WireEffect};
use crate::host::{Generator, Host};
use crate::report::{DegradationReport, EventStats, SimReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use tsn_resource::ResourceConfig;
use tsn_switch::gate_ctrl::GateControlList;
use tsn_switch::ingress_filter::{ClassEntry, ClassKey, TokenBucketMeter};
use tsn_switch::pipeline::{PortKind, SwitchSpec, TsnSwitchCore};
use tsn_switch::stats::DropReason;
use tsn_switch::time_sync::{ClockModel, SyncConfig, SyncDomain, SyncFaultProfile};
use tsn_topology::{
    EnabledPorts, Link, LinkId, NodeKind, Route, RouteTree, RouteTreeCache, Topology,
};
use tsn_types::{
    DataRate, EthernetFrame, FlowId, FlowMap, FlowSet, FlowSpec, MacAddr, MeterId, NodeId, PortId,
    QueueId, SimDuration, SimTime, TrafficClass, TsnError, TsnResult, VlanId,
};

/// How the switches' clocks are synchronized.
#[derive(Debug, Clone)]
pub enum SyncSetup {
    /// All switches share the true simulation time (an idealized domain).
    Perfect,
    /// A gPTP domain with drifting oscillators, pre-converged over
    /// `warmup` before traffic starts and kept running during the
    /// experiment.
    Gptp {
        /// Protocol parameters.
        config: SyncConfig,
        /// Convergence time before traffic starts.
        warmup: SimDuration,
    },
}

impl Default for SyncSetup {
    fn default() -> Self {
        SyncSetup::Gptp {
            config: SyncConfig::default(),
            warmup: SimDuration::from_secs(2),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// CQF slot length (the paper's default is 65 µs).
    pub slot: SimDuration,
    /// Per-switch memory resources.
    pub resources: ResourceConfig,
    /// Ingress pipeline latency of a switch (parser + lookup + filter);
    /// folded into the link delay.
    pub switch_proc_delay: SimDuration,
    /// Injection window: generators fire in `[0, duration)`.
    pub duration: SimDuration,
    /// Extra time after `duration` for in-flight frames to drain.
    pub drain: SimDuration,
    /// Clock synchronization model.
    pub sync: SyncSetup,
    /// Install one aggregated (any-VLAN) unicast entry per destination
    /// instead of one exact entry per flow — the paper's guideline-(1)
    /// table aggregation.
    pub aggregate_switch_tbl: bool,
    /// Per-switch resource overrides (heterogeneous customization);
    /// switches not named here use `resources`.
    pub per_switch_resources: HashMap<NodeId, ResourceConfig>,
    /// Enable 802.3br/802.1Qbu frame preemption: express (TS) frames
    /// interrupt in-flight preemptable (RC/BE) frames at fragment
    /// boundaries, on switch egress ports and host NICs alike.
    pub frame_preemption: bool,
    /// Fault injection (link outages/flaps, wire loss/corruption, clock
    /// perturbation). [`FaultConfig::none`] — the default — adds zero
    /// work and zero PRNG draws, so fault-free runs are byte-identical
    /// to pre-fault-subsystem behaviour.
    pub faults: FaultConfig,
}

impl SimConfig {
    /// The paper's defaults: 65 µs slot, customized resources, 2 µs
    /// pipeline delay, 100 ms of traffic, generous drain, gPTP sync.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SimConfig {
            slot: SimDuration::from_micros(65),
            resources: ResourceConfig::new(),
            switch_proc_delay: SimDuration::from_micros(2),
            duration: SimDuration::from_millis(100),
            drain: SimDuration::from_millis(20),
            sync: SyncSetup::default(),
            aggregate_switch_tbl: false,
            per_switch_resources: HashMap::new(),
            frame_preemption: false,
            faults: FaultConfig::none(),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_defaults()
    }
}

#[derive(Clone)]
enum NodeRole {
    Switch {
        core: Box<TsnSwitchCore>,
        /// Index into the gPTP sync domain (chain order).
        sync_index: usize,
    },
    Host(Box<Host>),
}

/// Smallest fragment (wire bytes) that must already be on the wire before
/// an express frame may interrupt (802.3br's 64-byte minimum fragment,
/// preamble included in our wire accounting).
const MIN_FRAGMENT_WIRE_BYTES: u64 = 84;
/// Do not bother preempting when fewer than this many wire bytes remain.
const MIN_TAIL_WIRE_BYTES: u64 = 84;
/// Extra wire bytes a continuation fragment costs (preamble + SFD + mCRC
/// + inter-frame gap).
const FRAGMENT_OVERHEAD_BYTES: u32 = 24;

/// One in-flight transmission segment on a port.
#[derive(Debug, Clone)]
struct ActiveTx {
    frame: EthernetFrame,
    /// Source queue on a switch port (`None` on host NICs).
    queue: Option<QueueId>,
    /// Wire bytes this segment carries.
    wire_bytes: u32,
    express: bool,
    started: SimTime,
}

/// The tail of a preempted frame, waiting for the express burst to pass.
#[derive(Debug, Clone)]
struct Suspended {
    frame: EthernetFrame,
    queue: Option<QueueId>,
    remaining_wire_bytes: u32,
}

/// Per-port transmitter state for the preemption machinery.
#[derive(Debug, Clone, Default)]
struct WireState {
    gen: u64,
    active: Option<ActiveTx>,
    suspended: Option<Suspended>,
}

/// What a preemption attempt decided.
enum PreemptOutcome {
    /// The port was preempted and is free now.
    Preempted,
    /// Preemption will become possible at this instant (minimum-fragment
    /// rule); re-kick then.
    RetryAt(SimTime),
    /// Not preemptable (express in flight, or too little tail left).
    No,
}

/// A fully assembled simulated TSN network.
pub struct Network {
    /// Shared immutable after build, with the template that built it.
    topology: Arc<Topology>,
    roles: Vec<NodeRole>,
    /// Shared immutable after build, with the template that built it.
    flows: Arc<FlowSet>,
    queue: EventQueue,
    analyzer: Analyzer,
    /// Per-(node, port) link-busy horizon (flat stride-indexed arena).
    busy_until: PortGrid<SimTime>,
    /// Per-(node, port) transmitted wire bytes (frames + overhead).
    tx_bytes: PortGrid<u64>,
    /// Per-(node, port) transmitter state (active segment, suspended
    /// fragment, generation).
    wires: PortGrid<WireState>,
    /// Preemptions performed (802.3br).
    preemptions: u64,
    sync_domain: Option<SyncDomain>,
    /// The fault-injection engine; `None` on healthy runs, which
    /// therefore skip every per-frame fault check.
    fault: Option<FaultEngine>,
    config: SimConfig,
    /// Per-event-type counters and suppression instrumentation.
    stats: EventStats,
    /// TS deadline per flow, precomputed at build so the hot delivery
    /// path avoids the linear `FlowSet` scan. Dense `FlowId`-indexed:
    /// the per-delivery lookup is one bounds check. Shared with the
    /// template.
    deadlines: Arc<FlowMap<SimDuration>>,
    /// Reusable scratch buffer for switch dispositions (one allocation
    /// for the whole run instead of one per arriving frame).
    scratch: Vec<tsn_switch::pipeline::Disposition>,
    now: SimTime,
}

/// A flat `(node, port)`-indexed arena: one contiguous allocation with a
/// shared prefix-sum base, replacing the former `Vec<Vec<…>>` per-port
/// state (one heap block per node, pointer chase per access).
#[derive(Debug, Clone)]
struct PortGrid<T> {
    /// `base[n]..base[n + 1]` is node `n`'s span; `base.len() = nodes + 1`.
    base: Arc<[u32]>,
    data: Vec<T>,
}

impl<T: Clone> PortGrid<T> {
    fn new(base: Arc<[u32]>, fill: T) -> Self {
        let len = *base.last().expect("base holds nodes + 1 offsets") as usize;
        PortGrid {
            data: vec![fill; len],
            base,
        }
    }

    #[inline]
    fn at(&self, node: usize, port: usize) -> &T {
        &self.data[self.base[node] as usize + port]
    }

    #[inline]
    fn at_mut(&mut self, node: usize, port: usize) -> &mut T {
        &mut self.data[self.base[node] as usize + port]
    }

    /// One node's contiguous span.
    fn node_span(&self, node: usize) -> &[T] {
        &self.data[self.base[node] as usize..self.base[node + 1] as usize]
    }
}

/// The per-node port-count prefix sums all of a network's [`PortGrid`]s
/// share.
fn port_base(topology: &Topology) -> Arc<[u32]> {
    let mut base = Vec::with_capacity(topology.nodes().len() + 1);
    let mut acc = 0u32;
    base.push(0);
    for node in topology.nodes() {
        acc += topology.port_count(node.id()) as u32;
        base.push(acc);
    }
    base.into()
}

/// A dense, sorted per-`(switch, egress port)` gate-control override
/// schedule — the hook for synthesized 802.1Qbv (TAS) programs. Replaces
/// the former `HashMap<(NodeId, PortId), …>` build argument: entries are
/// grouped per node, so building a switch scans only its own overrides
/// instead of the whole map.
#[derive(Debug, Clone, Default)]
pub struct GclSchedule {
    entries: Vec<(NodeId, PortId, GateControlList, GateControlList)>,
}

impl GclSchedule {
    /// An empty schedule (every port keeps its role-derived default).
    #[must_use]
    pub fn new() -> Self {
        GclSchedule::default()
    }

    /// Converts a keyed map (e.g. a synthesized TAS schedule) into the
    /// dense sorted form. Deterministic regardless of the map's hash
    /// iteration order.
    #[must_use]
    pub fn from_map(map: &HashMap<(NodeId, PortId), (GateControlList, GateControlList)>) -> Self {
        let mut entries: Vec<_> = map
            .iter()
            .map(|(&(node, port), (in_gcl, out_gcl))| (node, port, in_gcl.clone(), out_gcl.clone()))
            .collect();
        entries.sort_by_key(|e| (e.0, e.1));
        GclSchedule { entries }
    }

    /// The overrides of one node, as a contiguous sorted slice.
    fn for_node(&self, node: NodeId) -> &[(NodeId, PortId, GateControlList, GateControlList)] {
        let lo = self.entries.partition_point(|e| e.0 < node);
        let hi = self.entries.partition_point(|e| e.0 <= node);
        &self.entries[lo..hi]
    }
}

/// One flow's precomputed forwarding path: the switch hops (with egress
/// ports) in path order, plus the traversed links for the fault engine's
/// primary-path bookkeeping.
#[derive(Debug, Clone)]
struct FlowProgram {
    flow: FlowId,
    /// `(switch, egress port)` per switch hop, in path order.
    hops: Box<[(NodeId, PortId)]>,
    /// Every link the route traverses (host links included).
    links: Box<[LinkId]>,
}

/// The route-resolution half of flow installation, precomputed once per
/// scenario: everything `install` needs that depends only on topology and
/// flow endpoints — not on resources, slot, offsets or queue layouts.
/// Applying the program replays the exact install order of a from-scratch
/// build, so instantiations are byte-identical to it by construction.
#[derive(Debug, Clone, Default)]
struct InstallProgram {
    flows: Vec<FlowProgram>,
}

/// A config delta for [`NetworkTemplate::reconfigure`]: only the named
/// fields change; everything else (topology, flows, routes, sync, fault
/// plan) stays resident in the template. `Default` changes nothing.
#[derive(Debug, Clone, Default)]
pub struct ConfigDelta {
    /// Replacement per-switch memory resources.
    pub resources: Option<ResourceConfig>,
    /// Replacement per-switch resource overrides.
    pub per_switch_resources: Option<HashMap<NodeId, ResourceConfig>>,
    /// Replacement CQF slot length.
    pub slot: Option<SimDuration>,
    /// Toggle the aggregated (any-VLAN) unicast table mode.
    pub aggregate_switch_tbl: Option<bool>,
    /// Replacement per-flow injection offsets (a new ITP plan).
    pub offsets: Option<FlowMap<SimDuration>>,
}

impl ConfigDelta {
    /// A delta that swaps only the resource configuration — the
    /// design-space-search inner loop.
    #[must_use]
    pub fn resources(resources: ResourceConfig) -> Self {
        ConfigDelta {
            resources: Some(resources),
            ..ConfigDelta::default()
        }
    }

    /// `true` when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resources.is_none()
            && self.per_switch_resources.is_none()
            && self.slot.is_none()
            && self.aggregate_switch_tbl.is_none()
            && self.offsets.is_none()
    }
}

/// A fully-instantiated network image cached inside a [`NetworkTemplate`]:
/// the programmed node roles (switch data planes with every table entry,
/// meter and shaper installed; hosts with their generators attached) plus
/// the initial event queue and fault-engine state exactly as
/// [`NetworkTemplate::instantiate_with`] leaves them. A resources-only
/// [`ConfigDelta`] can adopt a clone of this image by re-provisioning
/// capacities in place ([`TsnSwitchCore::reprovision`]) instead of
/// replaying every install — turning the per-flow-hop reconfiguration
/// cost into a flat memcpy-shaped clone.
struct InstanceSeed {
    roles: Vec<NodeRole>,
    queue: EventQueue,
    fault: Option<FaultEngine>,
}

/// A resident, reusable network build: topology, routes, port roles, the
/// pre-converged sync domain and the flow-install program stay alive
/// across instantiations, so evaluating a new [`ResourceConfig`] (or
/// slot, offsets, table mode) costs one [`NetworkTemplate::reconfigure`]
/// instead of a full [`Network::build`] — no topology/flow
/// clones, no per-talker BFS, no port-role derivation, no gPTP warmup.
///
/// Every instantiation produces a [`Network`] whose run is byte-identical
/// to a from-scratch build with the same effective config: instantiation
/// replays the exact same install operations in the exact same order.
pub struct NetworkTemplate {
    topology: Arc<Topology>,
    flows: Arc<FlowSet>,
    config: SimConfig,
    offsets: FlowMap<SimDuration>,
    gcls: GclSchedule,
    /// Per-node port roles (empty for hosts), derived once.
    port_kinds: Vec<Vec<PortKind>>,
    ports_base: Arc<[u32]>,
    program: InstallProgram,
    deadlines: Arc<FlowMap<SimDuration>>,
    /// Pre-converged (post-warmup, pre-fault-arming) gPTP domain; cloned
    /// per instantiation. `None` under perfect sync.
    sync_seed: Option<SyncDomain>,
    /// Route-cache effectiveness while the program was computed.
    route_cache: crate::report::RouteCacheStats,
    /// Lazily-built instantiation image for the capacity-patching fast
    /// path of [`NetworkTemplate::reconfigure`]. `Some(None)` once
    /// building it failed (base config not instantiable) so the replay
    /// path is taken without retrying.
    seed: OnceLock<Option<InstanceSeed>>,
}

impl std::fmt::Debug for NetworkTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkTemplate")
            .field("nodes", &self.topology.nodes().len())
            .field("flows", &self.flows.len())
            .field("gcl_overrides", &self.gcls.entries.len())
            .finish_non_exhaustive()
    }
}

impl NetworkTemplate {
    /// Builds a template with the role-derived default gate schedules.
    ///
    /// # Errors
    ///
    /// Invalid flow endpoints, unroutable flows, or a sync-domain setup
    /// failure. Resource shortfalls surface at
    /// [`NetworkTemplate::instantiate`] instead, since they depend on the
    /// (reconfigurable) resource knobs.
    pub fn new(
        topology: Topology,
        flows: FlowSet,
        offsets: &FlowMap<SimDuration>,
        config: SimConfig,
    ) -> TsnResult<Self> {
        NetworkTemplate::with_schedule(topology, flows, offsets, config, GclSchedule::new())
    }

    /// As [`NetworkTemplate::new`], with explicit per-port gate-control
    /// overrides (synthesized 802.1Qbv schedules).
    ///
    /// # Errors
    ///
    /// As [`NetworkTemplate::new`].
    pub fn with_schedule(
        topology: Topology,
        flows: FlowSet,
        offsets: &FlowMap<SimDuration>,
        config: SimConfig,
        gcls: GclSchedule,
    ) -> TsnResult<Self> {
        let (program, route_cache, enabled_ports) = compute_program(&topology, &flows)?;
        let switch_count = topology.switches().len();
        let mut port_kinds = Vec::with_capacity(topology.nodes().len());
        for node in topology.nodes() {
            match node.kind() {
                NodeKind::Switch => {
                    let ports: Vec<PortKind> = (0..topology.port_count(node.id()))
                        .map(|p| {
                            let link = topology
                                .link_at(node.id(), PortId::new(p as u16))
                                .expect("port enumeration is in range");
                            let peer_is_switch = link
                                .peer_of(node.id())
                                .and_then(|peer| topology.node(peer.node).ok())
                                .is_some_and(tsn_topology::Node::is_switch);
                            if peer_is_switch
                                && link.allows_egress_from(node.id())
                                && enabled_ports.is_enabled(node.id(), PortId::new(p as u16))
                            {
                                PortKind::Tsn
                            } else {
                                PortKind::Edge
                            }
                        })
                        .collect();
                    port_kinds.push(ports);
                }
                NodeKind::Host => port_kinds.push(Vec::new()),
            }
        }

        let faults_on = config.faults.enabled();
        let sync_seed = match &config.sync {
            SyncSetup::Perfect => None,
            SyncSetup::Gptp { config: sc, warmup } => {
                // `drift_scale` perturbs every oscillator; 1.0 keeps the
                // standard population bit-for-bit (×1.0 is exact in f64).
                let scale = if faults_on {
                    config.faults.drift_scale
                } else {
                    1.0
                };
                let clocks: Vec<ClockModel> = (0..switch_count)
                    .map(|i| {
                        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                        ClockModel::new(
                            sign * (15.0 + 11.0 * i as f64) * scale,
                            sign * 250_000.0 * (i as f64 + 1.0) * scale,
                        )
                    })
                    .collect();
                let mut domain = SyncDomain::chain(clocks, *sc, SimDuration::from_nanos(50))?;
                // Pre-converge, then rebase so t=0 of the experiment is
                // already synchronized (the paper syncs before measuring).
                domain.run_until(SimTime::ZERO + *warmup);
                // Sync faults arm only after convergence: the measured
                // regime is "healthy domain degrades", not "domain never
                // converged". Arming just seeds a PRNG, so cloning the
                // armed domain per instantiation is byte-identical to
                // arming each clone.
                if faults_on {
                    domain.set_faults(
                        SyncFaultProfile {
                            message_loss_prob: config.faults.sync_loss_prob,
                            extra_jitter_ns: config.faults.sync_jitter_ns,
                        },
                        config.faults.seed ^ 0x9e37_79b9_7f4a_7c15,
                    );
                }
                Some(domain)
            }
        };

        let deadlines: FlowMap<SimDuration> = flows
            .iter()
            .filter_map(|f| f.as_ts().map(|ts| (ts.id(), ts.deadline())))
            .collect();

        Ok(NetworkTemplate {
            ports_base: port_base(&topology),
            topology: Arc::new(topology),
            flows: Arc::new(flows),
            config,
            offsets: offsets.clone(),
            gcls,
            port_kinds,
            program,
            deadlines: Arc::new(deadlines),
            sync_seed,
            route_cache,
            seed: OnceLock::new(),
        })
    }

    /// The base simulation config instantiations start from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shared topology.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The shared flow set.
    #[must_use]
    pub fn flows(&self) -> &Arc<FlowSet> {
        &self.flows
    }

    /// Instantiates a runnable [`Network`] with the template's own config
    /// and offsets — what [`Network::build`] does, minus everything the
    /// template already paid for.
    ///
    /// # Errors
    ///
    /// Resource shortfalls: more TSN ports than provisioned, tables too
    /// small for the flow count, gate-table capacity violations.
    pub fn instantiate(&self) -> TsnResult<Network> {
        self.instantiate_with(self.config.clone(), &self.offsets)
    }

    /// Instantiates a runnable [`Network`] with `delta` applied on top of
    /// the template's base config — the incremental-reconfiguration entry
    /// point. Topology, routes, port roles, the install program and the
    /// pre-converged sync domain are reused; only the delta-dependent
    /// switch state is re-derived.
    ///
    /// # Errors
    ///
    /// As [`NetworkTemplate::instantiate`] (the delta may shrink tables
    /// below what the flows need).
    pub fn reconfigure(&self, delta: &ConfigDelta) -> TsnResult<Network> {
        let mut config = self.config.clone();
        if let Some(resources) = &delta.resources {
            config.resources = resources.clone();
        }
        if let Some(per_switch) = &delta.per_switch_resources {
            config.per_switch_resources = per_switch.clone();
        }
        if let Some(slot) = delta.slot {
            config.slot = slot;
        }
        if let Some(aggregate) = delta.aggregate_switch_tbl {
            config.aggregate_switch_tbl = aggregate;
        }
        // Resources-only deltas (the DSE/sweep inner loop) take the
        // capacity-patching fast path: adopt a clone of the cached
        // instantiation image under the new resources instead of
        // replaying every install. `slot`/`aggregate_switch_tbl`/
        // `offsets` change what the replay programs, so those deltas —
        // and any resources the image cannot adopt — fall through to
        // the replay, which is byte-identical to a from-scratch build
        // by construction.
        if delta.slot.is_none() && delta.aggregate_switch_tbl.is_none() && delta.offsets.is_none() {
            if let Some(network) = self.instantiate_patched(&config) {
                return Ok(network);
            }
        }
        let offsets = delta.offsets.as_ref().unwrap_or(&self.offsets);
        self.instantiate_with(config, offsets)
    }

    /// The instantiation worker: assembles switch cores, hosts, port
    /// grids and the event queue for an arbitrary effective config, then
    /// replays the install program. Private because arbitrary configs
    /// could desynchronize the cached sync domain (its clocks depend on
    /// `sync`/`faults`, which [`ConfigDelta`] deliberately cannot
    /// change).
    fn instantiate_with(
        &self,
        config: SimConfig,
        offsets: &FlowMap<SimDuration>,
    ) -> TsnResult<Network> {
        let mut roles = Vec::with_capacity(self.topology.nodes().len());
        // Switches appear in `topology.switches()` in creation order, so a
        // running counter gives each its sync-domain chain index.
        let mut next_sync_index = 0usize;
        for node in self.topology.nodes() {
            match node.kind() {
                NodeKind::Switch => {
                    let resources = config
                        .per_switch_resources
                        .get(&node.id())
                        .unwrap_or(&config.resources);
                    let mut spec = SwitchSpec::new(
                        resources,
                        self.port_kinds[node.id().as_usize()].clone(),
                        config.slot,
                    );
                    for (_, port, in_gcl, out_gcl) in self.gcls.for_node(node.id()) {
                        spec.override_gcl(*port, in_gcl, out_gcl);
                    }
                    let core = TsnSwitchCore::new(&spec)?;
                    let sync_index = next_sync_index;
                    next_sync_index += 1;
                    roles.push(NodeRole::Switch {
                        core: Box::new(core),
                        sync_index,
                    });
                }
                NodeKind::Host => {
                    roles.push(NodeRole::Host(Box::new(Host::new(
                        node.id(),
                        mac_for(node.id()),
                    ))));
                }
            }
        }

        let faults_on = config.faults.enabled();
        let fault = faults_on.then(|| FaultEngine::new(config.faults.clone(), &self.topology));
        let horizon = SimTime::ZERO + config.duration + config.drain;
        let mut network = self.assemble(config, roles, EventQueue::new(), fault);
        network.apply_program(&self.program, offsets)?;
        // The link up/down timeline is pre-generated from the fault seed
        // at build, so it is identical whatever the run does.
        if let Some(engine) = &mut network.fault {
            for (at, link, goes_down) in engine.timeline(horizon) {
                let event = if goes_down {
                    Event::LinkDown { link }
                } else {
                    Event::LinkUp { link }
                };
                network.queue.schedule(at, event);
            }
        }
        Ok(network)
    }

    /// The capacity-patching fast path of
    /// [`NetworkTemplate::reconfigure`]: clones the cached
    /// [`InstanceSeed`] (building it from the template's base config on
    /// first use) and re-provisions every switch core to `config`'s
    /// effective resources in place, skipping the per-flow-hop install
    /// replay entirely.
    ///
    /// Returns `None` — and the caller falls back to the replay path,
    /// which reproduces a from-scratch build (including its exact
    /// errors) — when the base config is not instantiable, or any switch
    /// rejects the new resources ([`TsnSwitchCore::reprovision`]: a
    /// structural knob changed, or installed state no longer fits a
    /// capacity).
    ///
    /// Only sound for deltas that leave `slot`, `aggregate_switch_tbl`
    /// and `offsets` untouched: those knobs change what the install
    /// replay *programs* (queue schedules, table keys, generator
    /// phases), not just capacity checks, so the cached image would be
    /// stale. The caller enforces that precondition.
    fn instantiate_patched(&self, config: &SimConfig) -> Option<Network> {
        let seed = self
            .seed
            .get_or_init(|| {
                self.instantiate_with(self.config.clone(), &self.offsets)
                    .ok()
                    .map(|network| InstanceSeed {
                        roles: network.roles,
                        queue: network.queue,
                        fault: network.fault,
                    })
            })
            .as_ref()?;
        let mut roles = seed.roles.clone();
        for node in self.topology.nodes() {
            if let NodeRole::Switch { core, .. } = &mut roles[node.id().as_usize()] {
                let resources = config
                    .per_switch_resources
                    .get(&node.id())
                    .unwrap_or(&config.resources);
                if !core.reprovision(resources) {
                    return None;
                }
            }
        }
        Some(self.assemble(
            config.clone(),
            roles,
            seed.queue.clone(),
            seed.fault.clone(),
        ))
    }

    /// Assembles a runnable [`Network`] around prepared node roles, an
    /// event queue and a fault engine — everything both instantiation
    /// paths share (grids, analyzer, sync domain, report plumbing).
    fn assemble(
        &self,
        config: SimConfig,
        roles: Vec<NodeRole>,
        queue: EventQueue,
        fault: Option<FaultEngine>,
    ) -> Network {
        let stats = EventStats {
            route_cache: self.route_cache,
            ..EventStats::default()
        };
        Network {
            topology: Arc::clone(&self.topology),
            roles,
            flows: Arc::clone(&self.flows),
            queue,
            analyzer: Analyzer::with_flow_capacity(self.flows.len()),
            busy_until: PortGrid::new(Arc::clone(&self.ports_base), SimTime::ZERO),
            tx_bytes: PortGrid::new(Arc::clone(&self.ports_base), 0),
            wires: PortGrid::new(Arc::clone(&self.ports_base), WireState::default()),
            preemptions: 0,
            sync_domain: self.sync_seed.clone(),
            fault,
            config,
            stats,
            deadlines: Arc::clone(&self.deadlines),
            scratch: Vec::new(),
            now: SimTime::ZERO,
        }
    }
}

/// Resolves every flow's route once: endpoint validation, one cached BFS
/// tree per talker, switch hops with their egress ports, and the full
/// link list for the fault engine. The route-cache capacity scales with
/// the distinct-talker count so large plants don't thrash the fixed
/// default.
///
/// The TS routes also give the enabled ports of guideline (5):
/// gate-control hardware exists only on the egress ports they use — the
/// same analysis that sized `port_num` during derivation. Other
/// switch-to-switch ports stay ungated (always-open), like
/// un-provisioned ports on the FPGA.
fn compute_program(
    topology: &Topology,
    flows: &FlowSet,
) -> TsnResult<(InstallProgram, crate::report::RouteCacheStats, EnabledPorts)> {
    let mut is_talker = vec![false; topology.nodes().len()];
    let mut talkers = 0usize;
    for flow in flows.iter() {
        let idx = flow.src().as_usize();
        if idx < is_talker.len() && !is_talker[idx] {
            is_talker[idx] = true;
            talkers += 1;
        }
    }
    let mut route_trees = RouteTreeCache::with_capacity(talkers);
    let mut programs = Vec::with_capacity(flows.len());
    let mut failure = None;
    // One routing pass: each route becomes its flow's program and, for a
    // TS flow, feeds the enabled-port analysis, then is dropped — no
    // route outlives its flow.
    let ts_routes = flows
        .iter()
        .map_while(
            |flow| match flow_program(topology, &mut route_trees, flow) {
                Ok((program, route)) => {
                    programs.push(program);
                    Some(flow.as_ts().map(|_| route))
                }
                Err(e) => {
                    failure = Some(e);
                    None
                }
            },
        )
        .flatten();
    let enabled_ports = EnabledPorts::from_routes(topology, ts_routes);
    if let Some(e) = failure {
        return Err(e);
    }
    let stats = crate::report::RouteCacheStats {
        hits: route_trees.hits(),
        misses: route_trees.misses(),
        evictions: route_trees.evictions(),
        capacity: route_trees.capacity(),
    };
    Ok((InstallProgram { flows: programs }, stats, enabled_ports))
}

/// One flow's install program and the route it came from.
fn flow_program(
    topology: &Topology,
    route_trees: &mut RouteTreeCache,
    flow: &FlowSpec,
) -> TsnResult<(FlowProgram, Route)> {
    for node in [flow.src(), flow.dst()] {
        if !topology
            .node(node)
            .map(tsn_topology::Node::is_host)
            .unwrap_or(false)
        {
            return Err(TsnError::invalid_parameter(
                "flow",
                format!("{} endpoint {node} is not a host", flow.id()),
            ));
        }
    }
    let route = route_trees.route(topology, flow.src(), flow.dst())?;
    let mut hops = Vec::new();
    for hop in route.switch_hops_iter() {
        let egress = hop
            .egress
            .ok_or_else(|| TsnError::invalid_parameter("route", "switch hop without egress"))?;
        hops.push((hop.node, egress));
    }
    let links: Box<[LinkId]> = route
        .hops()
        .iter()
        .filter_map(|hop| {
            let egress = hop.egress?;
            topology.link_at(hop.node, egress).ok().map(Link::id)
        })
        .collect();
    let program = FlowProgram {
        flow: flow.id(),
        hops: hops.into_boxed_slice(),
        links,
    };
    Ok((program, route))
}

/// The VLAN that distinguishes one flow from another on the wire (flows
/// between the same pair of hosts differ by VID, which is what makes the
/// classification and switch tables scale with the *flow count*, as the
/// paper sizes them).
#[must_use]
pub fn vlan_for(flow: FlowId) -> VlanId {
    VlanId::new(1 + (flow.index() % 4000) as u16).expect("1..=4000 is always a legal vid")
}

/// The deterministic station MAC of a node.
#[must_use]
pub fn mac_for(node: NodeId) -> MacAddr {
    MacAddr::station(u64::from(node.index()))
}

impl Network {
    /// Builds the network: derives per-port roles, instantiates switch
    /// cores, programs all tables, creates host generators and the sync
    /// domain.
    ///
    /// `offsets` carries the planned injection offset of each TS flow
    /// (what ITP computes); missing flows start at phase 0.
    ///
    /// # Errors
    ///
    /// Any resource shortfall surfaces here: more TSN ports than
    /// provisioned, a classification/switch table too small for the flow
    /// count, invalid flow endpoints, or unroutable flows.
    pub fn build(
        topology: Topology,
        flows: FlowSet,
        offsets: &FlowMap<SimDuration>,
        config: SimConfig,
    ) -> TsnResult<Self> {
        NetworkTemplate::new(topology, flows, offsets, config)?.instantiate()
    }

    /// Replays the precomputed install program: programs forwarding /
    /// classification / meter / shaper state on every switch and attaches
    /// the host generators, in exactly the order a from-scratch install
    /// performed — reports stay byte-identical across instantiations.
    fn apply_program(
        &mut self,
        program: &InstallProgram,
        offsets: &FlowMap<SimDuration>,
    ) -> TsnResult<()> {
        // Per-switch running meter allocation and per-(switch, port, queue)
        // reserved-rate accumulation for the shapers. BTreeMaps: switch
        // programming must not depend on hash iteration order, or two
        // builds of the same scenario configure their switches differently.
        let mut next_meter: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut rc_reservations: BTreeMap<(NodeId, PortId, QueueId), u64> = BTreeMap::new();

        // Borrow the shared flow set through its own handle so the loop
        // body can still take `&mut self` (at 512 flows a deep clone
        // dominated build time — the PR-2 bench regression).
        let flows = Arc::clone(&self.flows);
        for (flow, prog) in flows.iter().zip(program.flows.iter()) {
            debug_assert_eq!(flow.id(), prog.flow, "program is in flow-set order");
            let src = flow.src();
            let dst = flow.dst();
            if let Some(engine) = &mut self.fault {
                engine.set_primary(flow.id(), prog.links.to_vec());
            }
            let vlan = vlan_for(flow.id());
            let dst_mac = mac_for(dst);
            let src_mac = mac_for(src);
            let class = flow.class();
            let pcp = class.default_pcp();

            for &(hop_node, egress) in prog.hops.iter() {
                let NodeRole::Switch { core, .. } = &mut self.roles[hop_node.as_usize()] else {
                    unreachable!("switch hop resolves to a switch role");
                };
                if self.config.aggregate_switch_tbl {
                    core.add_unicast_any_vlan(dst_mac, egress)?;
                } else {
                    core.add_unicast(dst_mac, vlan, egress)?;
                }

                // `spread_queue` yields a `Copy` id, so the shared borrow
                // of `core` ends immediately — no layout clone needed.
                let queue = core
                    .gates(egress)
                    .expect("egress port exists")
                    .layout()
                    .spread_queue(class, u64::from(flow.id().index()));
                let meter = match flow {
                    FlowSpec::Rc(rc) => {
                        let slot_counter = next_meter.entry(hop_node).or_insert(0);
                        let meter_id = MeterId::new(*slot_counter);
                        *slot_counter += 1;
                        // Token bucket at the reserved rate with a two-frame burst.
                        core.set_meter(
                            meter_id,
                            TokenBucketMeter::new(rc.reserved_rate(), rc.frame_bytes() * 2)?,
                        )?;
                        *rc_reservations
                            .entry((hop_node, egress, queue))
                            .or_insert(0) += rc.reserved_rate().bits_per_sec();
                        Some(meter_id)
                    }
                    _ => None,
                };
                // TS and RC streams get per-stream filter entries (802.1Qci);
                // best-effort traffic takes the PCP fallback and consumes no
                // classification-table capacity, as on real switches.
                if !matches!(flow, FlowSpec::Be(_)) {
                    core.add_class_entry(
                        ClassKey {
                            src: src_mac,
                            dst: dst_mac,
                            vlan,
                            pcp,
                        },
                        ClassEntry { queue, meter },
                    )?;
                }
            }

            // Attach the generator on the talker host.
            let offset = offsets.get(flow.id()).copied().unwrap_or(SimDuration::ZERO);
            let generator = match flow {
                FlowSpec::Ts(ts) => Generator::time_sensitive(
                    ts.id(),
                    dst_mac,
                    vlan,
                    ts.frame_bytes(),
                    ts.period(),
                    offset,
                    ts.deadline(),
                )
                .aligned_to(self.config.slot),
                FlowSpec::Rc(rc) => Generator::constant_rate(
                    rc.id(),
                    TrafficClass::RateConstrained,
                    dst_mac,
                    vlan,
                    rc.frame_bytes(),
                    rc.reserved_rate(),
                    offset,
                ),
                FlowSpec::Be(be) => Generator::constant_rate(
                    be.id(),
                    TrafficClass::BestEffort,
                    dst_mac,
                    vlan,
                    be.frame_bytes(),
                    be.offered_rate(),
                    offset,
                ),
            };
            let NodeRole::Host(host) = &mut self.roles[src.as_usize()] else {
                unreachable!("validated above");
            };
            let index = host.add_generator(generator);
            let first = host.generators()[index].first_injection();
            if first.saturating_since(SimTime::ZERO) < self.config.duration {
                self.queue.schedule(
                    first,
                    Event::Inject {
                        node: src,
                        generator: index,
                    },
                );
            }
        }

        // Install the credit-based shapers: one CBS slot per RC queue in
        // use on each port, idleSlope = sum of reservations through it.
        let mut slots_by_port: BTreeMap<(NodeId, PortId), usize> = BTreeMap::new();
        for ((node, port, queue), bits_per_sec) in rc_reservations {
            let NodeRole::Switch { core, .. } = &mut self.roles[node.as_usize()] else {
                unreachable!("reservations only name switches");
            };
            let slot = slots_by_port.entry((node, port)).or_insert(0);
            core.set_shaper(port, *slot, DataRate::bps(bits_per_sec))?;
            core.map_queue_to_shaper(port, queue, *slot)?;
            *slot += 1;
        }
        Ok(())
    }

    /// The links a route traverses, in path order.
    fn route_links(&self, route: &Route) -> Vec<LinkId> {
        route
            .hops()
            .iter()
            .filter_map(|hop| {
                let egress = hop.egress?;
                self.topology.link_at(hop.node, egress).ok().map(Link::id)
            })
            .collect()
    }

    /// Moves the pending events onto the reference `BinaryHeap` event
    /// queue ([`EventQueue::into_reference`]). Both backends realize the
    /// same `(time, seq)` order, so the run's report is byte-identical
    /// to the calendar queue's; differential tests compare the two.
    #[must_use]
    pub fn with_reference_queue(mut self) -> Self {
        self.queue = std::mem::take(&mut self.queue).into_reference();
        self
    }

    /// Runs the event loop to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.finish()
    }

    /// Advances the event loop by exactly one event. Returns
    /// `false` once the event list is exhausted or the horizon passed —
    /// then [`Network::finish`] yields the report. Exposed so harnesses
    /// (e.g. the counting-allocator test) can observe the loop
    /// event-by-event; `run` composes it the same way.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        if at > SimTime::ZERO + self.config.duration + self.config.drain {
            return false;
        }
        self.now = at;
        if let Some(domain) = &mut self.sync_domain {
            domain.run_until(at);
        }
        self.handle(at, event);
        true
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Inject { node, generator } => {
                self.stats.injects += 1;
                self.on_inject(node, generator, now);
            }
            Event::HostKick { node } => {
                self.stats.host_kicks += 1;
                self.on_host_kick(node, now);
            }
            Event::FrameArrive { node, port, frame } => {
                self.stats.frame_arrives += 1;
                self.on_arrive(node, port, frame, now);
            }
            Event::PortKick { node, port } => {
                self.stats.port_kicks += 1;
                self.on_port_kick(node, port, now);
            }
            Event::TxComplete { node, port, gen } => {
                self.stats.tx_completes += 1;
                self.on_tx_complete(node, port, gen, now);
            }
            Event::LinkDown { link } => {
                self.stats.link_transitions += 1;
                self.on_link_transition(link, true, now);
            }
            Event::LinkUp { link } => {
                self.stats.link_transitions += 1;
                self.on_link_transition(link, false, now);
            }
        }
    }

    /// A link changed availability: kill traffic being serialized on a
    /// dying wire, wake transmitters on a recovering one, and re-route
    /// every flow around the set of currently-dead links.
    fn on_link_transition(&mut self, link: LinkId, goes_down: bool, now: SimTime) {
        let Some(engine) = &mut self.fault else {
            return;
        };
        if !engine.transition(link, goes_down) {
            return; // nested overlap: effective state unchanged
        }
        let Some(ends) = self.topology.link(link).map(|l| [l.a(), l.b()]) else {
            return;
        };
        if goes_down {
            // Frames mid-serialization (and suspended fragments) on the
            // dead wire are lost on both ends.
            for end in ends {
                let ws = self.wires.at_mut(end.node.as_usize(), end.port.as_usize());
                ws.gen += 1; // stale TxComplete becomes a no-op
                let engine = self.fault.as_mut().expect("checked above");
                if let Some(active) = ws.active.take() {
                    engine.frames_lost_on_dead_links += 1;
                    engine.note_flow_loss(active.frame.flow());
                }
                if let Some(suspended) = ws.suspended.take() {
                    engine.frames_lost_on_dead_links += 1;
                    engine.note_flow_loss(suspended.frame.flow());
                }
                *self
                    .busy_until
                    .at_mut(end.node.as_usize(), end.port.as_usize()) = now;
                // Keep the transmitter draining: queued frames headed
                // into the dead wire drop one by one at `start_tx` until
                // the re-route takes effect.
                let kick = self.kick_for(end.node, end.port);
                self.queue.schedule(now, kick);
            }
        } else {
            // The wire is back: wake both transmitters.
            for end in ends {
                let kick = self.kick_for(end.node, end.port);
                self.queue.schedule(now, kick);
            }
        }
        self.reprogram_routes();
    }

    /// The wake-up event for a transmitter: a `PortKick` on switches, a
    /// `HostKick` on hosts.
    fn kick_for(&self, node: NodeId, port: PortId) -> Event {
        let is_host = self
            .topology
            .node(node)
            .map(tsn_topology::Node::is_host)
            .unwrap_or(false);
        if is_host {
            Event::HostKick { node }
        } else {
            Event::PortKick { node, port }
        }
    }

    /// Recomputes every flow's route avoiding the currently-dead links
    /// and reprograms the forwarding tables along changed paths.
    /// Deterministic: flows are visited in `FlowSet` order and the BFS
    /// is seedless.
    fn reprogram_routes(&mut self) {
        let flows = Arc::clone(&self.flows);
        // The dead-link set is fixed for the duration of one reprogram
        // pass, so one avoiding-BFS per talker serves all of its flows
        // (identical routes to the per-flow `route_avoiding` calls).
        let mut route_trees: BTreeMap<NodeId, RouteTree> = BTreeMap::new();
        for flow in flows.iter() {
            let engine = self.fault.as_mut().expect("caller holds an engine");
            let tree = match route_trees.entry(flow.src()) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    let Ok(tree) = self
                        .topology
                        .routes_from_avoiding(flow.src(), |l| engine.is_down(l))
                    else {
                        engine.note_unroutable(flow.id());
                        continue;
                    };
                    e.insert(tree)
                }
            };
            let Ok(route) = tree.route(&self.topology, flow.dst()) else {
                engine.note_unroutable(flow.id());
                continue;
            };
            let links = self.route_links(&route);
            let engine = self.fault.as_mut().expect("caller holds an engine");
            if !engine.set_current(flow.id(), links) {
                continue; // path unchanged: tables already agree
            }
            let vlan = vlan_for(flow.id());
            let dst_mac = mac_for(flow.dst());
            for hop in route.switch_hops_iter() {
                let Some(egress) = hop.egress else { continue };
                let NodeRole::Switch { core, .. } = &mut self.roles[hop.node.as_usize()] else {
                    continue;
                };
                // Table-capacity misses on detour switches degrade to a
                // blackhole towards the old path — graceful, counted.
                let programmed = if self.config.aggregate_switch_tbl {
                    core.add_unicast_any_vlan(dst_mac, egress)
                } else {
                    core.add_unicast(dst_mac, vlan, egress)
                };
                if programmed.is_err() {
                    if let Some(engine) = &mut self.fault {
                        engine.reroute_failures += 1;
                    }
                }
            }
        }
    }

    /// The corrected (gate-driving) clock of `node` at true time `now` —
    /// the true time itself for hosts and perfect sync.
    fn corrected_time(&self, node: NodeId, now: SimTime) -> SimTime {
        match (&self.roles[node.as_usize()], &self.sync_domain) {
            (NodeRole::Switch { sync_index, .. }, Some(domain)) => {
                domain.nodes()[*sync_index].now(now)
            }
            _ => now,
        }
    }

    /// Starts one transmission segment on `(node, port)` and schedules
    /// its completion.
    fn start_tx(
        &mut self,
        node: NodeId,
        port: PortId,
        frame: EthernetFrame,
        queue: Option<QueueId>,
        wire_bytes: u32,
        now: SimTime,
    ) {
        let Ok(link) = self.topology.link_at(node, port) else {
            return;
        };
        // A dead wire has no carrier: the frame is lost immediately and
        // the transmitter keeps draining (the re-route that follows a
        // LinkDown steers subsequent frames elsewhere).
        if let Some(engine) = &mut self.fault {
            if engine.is_down(link.id()) {
                engine.frames_lost_on_dead_links += 1;
                engine.note_flow_loss(frame.flow());
                let kick = self.kick_for(node, port);
                self.queue.schedule(now, kick);
                return;
            }
        }
        let tx = link.rate().serialization_time(wire_bytes);
        let express = frame.class() == TrafficClass::TimeSensitive;
        let end = now + tx;
        *self.busy_until.at_mut(node.as_usize(), port.as_usize()) = end;
        let ws = self.wires.at_mut(node.as_usize(), port.as_usize());
        ws.active = Some(ActiveTx {
            frame,
            queue,
            wire_bytes,
            express,
            started: now,
        });
        let gen = ws.gen;
        self.queue
            .schedule(end, Event::TxComplete { node, port, gen });
        // A preemptable segment on a switch port may need interrupting at
        // the next gate change (an express frame becoming eligible
        // mid-segment); arm a kick for it. Ports whose queues are empty
        // or whose GCL never changes need no mid-segment check: any new
        // express frame arrives through `on_arrive`, which kicks the port
        // itself when preemption is on.
        if self.config.frame_preemption && !express {
            let check = if let NodeRole::Switch { core, .. } = &self.roles[node.as_usize()] {
                let corrected = self.corrected_time(node, now);
                Some(
                    core.next_preemption_check(port, corrected)
                        .map(|next| next.saturating_since(corrected)),
                )
            } else {
                None
            };
            match check {
                Some(Some(until_next)) => {
                    let wait = until_next + SimDuration::from_nanos(100);
                    if now + wait < end {
                        self.queue
                            .schedule(now + wait, Event::PortKick { node, port });
                    }
                }
                Some(None) => self.stats.kicks_suppressed += 1,
                None => {}
            }
        }
    }

    /// Tries to interrupt the active preemptable segment on `(node,
    /// port)` at `now` (802.3br rules: a minimum fragment must already be
    /// out, and a minimum tail must remain).
    fn try_preempt(&mut self, node: NodeId, port: PortId, now: SimTime) -> PreemptOutcome {
        self.stats.preempt_attempts += 1;
        let Ok(link) = self.topology.link_at(node, port) else {
            return PreemptOutcome::No;
        };
        let rate = link.rate();
        let ws = self.wires.at_mut(node.as_usize(), port.as_usize());
        let Some(active) = &ws.active else {
            return PreemptOutcome::No;
        };
        if active.express || ws.suspended.is_some() {
            return PreemptOutcome::No;
        }
        let sent = rate.bytes_in(now.saturating_since(active.started));
        if sent < MIN_FRAGMENT_WIRE_BYTES {
            let earliest = active.started + rate.serialization_time(MIN_FRAGMENT_WIRE_BYTES as u32);
            return PreemptOutcome::RetryAt(earliest);
        }
        if u64::from(active.wire_bytes) <= sent + MIN_TAIL_WIRE_BYTES {
            return PreemptOutcome::No;
        }
        let active = ws.active.take().expect("checked above");
        let remaining = active.wire_bytes - sent as u32;
        ws.suspended = Some(Suspended {
            frame: active.frame,
            queue: active.queue,
            remaining_wire_bytes: remaining + FRAGMENT_OVERHEAD_BYTES,
        });
        ws.gen += 1; // invalidate the in-flight completion
        *self.busy_until.at_mut(node.as_usize(), port.as_usize()) = now;
        *self.tx_bytes.at_mut(node.as_usize(), port.as_usize()) += sent;
        self.preemptions += 1;
        PreemptOutcome::Preempted
    }

    /// A transmission segment completed: deliver the frame to the link
    /// peer (unless the segment was preempted — stale generation) and
    /// kick the transmitter.
    fn on_tx_complete(&mut self, node: NodeId, port: PortId, gen: u64, now: SimTime) {
        let ws = self.wires.at_mut(node.as_usize(), port.as_usize());
        if ws.gen != gen {
            return; // segment was preempted; a new completion is scheduled
        }
        let Some(active) = ws.active.take() else {
            return;
        };
        *self.tx_bytes.at_mut(node.as_usize(), port.as_usize()) += u64::from(active.wire_bytes);
        let Ok(link) = self.topology.link_at(node, port) else {
            return;
        };
        let peer = link.peer_of(node).expect("links have two ends");
        let peer_is_switch = self
            .topology
            .node(peer.node)
            .map(tsn_topology::Node::is_switch)
            .unwrap_or(false);
        let proc = if peer_is_switch {
            self.config.switch_proc_delay
        } else {
            SimDuration::ZERO
        };
        // The wire itself may destroy or damage the frame (fault
        // injection). The sender still spent the serialization time and
        // shaper credit either way.
        let mut delivered = Some(active.frame);
        if let Some(engine) = &mut self.fault {
            match engine.wire_effect(link.id()) {
                WireEffect::Intact => {}
                WireEffect::Lost => {
                    engine.frames_lost_to_wire += 1;
                    engine.note_flow_loss(active.frame.flow());
                    delivered = None;
                }
                WireEffect::Corrupted => {
                    engine.frames_corrupted += 1;
                    delivered = Some(active.frame.with_corruption());
                }
            }
        }
        if let Some(frame) = delivered {
            self.queue.schedule(
                now + link.propagation() + proc,
                Event::FrameArrive {
                    node: peer.node,
                    port: peer.port,
                    frame,
                },
            );
        }
        // Charge the credit-based shaper over the segment's span.
        if let (Some(queue), NodeRole::Switch { core, .. }) =
            (active.queue, &mut self.roles[node.as_usize()])
        {
            let frame_bits = u64::from(active.frame.size_bytes()) * 8;
            core.note_transmitted(port, queue, frame_bits, active.started, now);
        }
        // The wire is free: try to send the next segment — but only when
        // the transmitter actually has one (buffered frames or a
        // suspended fragment). An idle port is re-kicked by the next
        // enqueue, so the kick would be a guaranteed no-op.
        let suspended = self
            .wires
            .at(node.as_usize(), port.as_usize())
            .suspended
            .is_some();
        let kick = match &self.roles[node.as_usize()] {
            NodeRole::Switch { core, .. } => {
                let backlog = core.gates(port).is_some_and(|g| g.total_buffered() > 0);
                (backlog || suspended).then_some(Event::PortKick { node, port })
            }
            NodeRole::Host(host) => {
                (host.queued() > 0 || suspended).then_some(Event::HostKick { node })
            }
        };
        match kick {
            Some(kick) => self.queue.schedule(now, kick),
            None => self.stats.kicks_suppressed += 1,
        }
    }

    fn on_inject(&mut self, node: NodeId, generator: usize, now: SimTime) {
        let NodeRole::Host(host) = &mut self.roles[node.as_usize()] else {
            return;
        };
        let Ok(outcome) = host.inject(generator, now) else {
            return;
        };
        self.analyzer.note_injected(outcome.flow, outcome.class);
        if outcome.next_injection.saturating_since(SimTime::ZERO) < self.config.duration {
            self.queue
                .schedule(outcome.next_injection, Event::Inject { node, generator });
        }
        if outcome.queued {
            self.queue.schedule(now, Event::HostKick { node });
        }
    }

    fn on_host_kick(&mut self, node: NodeId, now: SimTime) {
        let port = PortId::new(0);
        let busy = *self.busy_until.at(node.as_usize(), 0);
        if now < busy {
            // Express traffic may interrupt a preemptable segment.
            let express_waiting = match &self.roles[node.as_usize()] {
                NodeRole::Host(host) => host.express_queued(),
                NodeRole::Switch { .. } => return,
            };
            if self.config.frame_preemption && express_waiting {
                match self.try_preempt(node, port, now) {
                    PreemptOutcome::Preempted => {} // fall through, wire free
                    PreemptOutcome::RetryAt(at) => {
                        self.queue.schedule(at, Event::HostKick { node });
                        return;
                    }
                    PreemptOutcome::No => {
                        // The pending TxComplete re-kicks at `busy`.
                        self.stats.kicks_suppressed += 1;
                        return;
                    }
                }
            } else {
                // The pending TxComplete re-kicks at `busy` if frames
                // are still queued; no need to schedule a retry.
                self.stats.kicks_suppressed += 1;
                return;
            }
        }
        let preemption = self.config.frame_preemption;
        let suspended_waiting = self.wires.at(node.as_usize(), 0).suspended.is_some();
        let NodeRole::Host(host) = &mut self.roles[node.as_usize()] else {
            return;
        };
        // 802.3br service order: express MAC, then the suspended
        // fragment, then fresh preemptable frames.
        let next = if preemption {
            if let Some(frame) = host.pop_next_class(Some(true)) {
                Some((frame, None))
            } else if suspended_waiting {
                let s = self
                    .wires
                    .at_mut(node.as_usize(), 0)
                    .suspended
                    .take()
                    .expect("checked");
                let bytes = s.remaining_wire_bytes;
                Some((s.frame, Some(bytes)))
            } else {
                host.pop_next_class(Some(false)).map(|f| (f, None))
            }
        } else {
            host.pop_next().map(|f| (f, None))
        };
        let Some((frame, resume_bytes)) = next else {
            return;
        };
        let wire_bytes = resume_bytes.unwrap_or_else(|| frame.wire_bytes());
        self.start_tx(node, port, frame, None, wire_bytes, now);
    }

    fn on_arrive(&mut self, node: NodeId, _port: PortId, frame: EthernetFrame, now: SimTime) {
        if matches!(&self.roles[node.as_usize()], NodeRole::Host(_)) {
            // A receiving NIC verifies the FCS before handing the frame
            // up; corrupted frames are dropped, never delivered.
            if frame.is_corrupted() {
                if let Some(engine) = &mut self.fault {
                    engine.fcs_drops_host += 1;
                    engine.note_flow_loss(frame.flow());
                }
                return;
            }
            let deadline = self.deadlines.get(frame.flow()).copied();
            if let (Some(deadline), Some(engine)) =
                (self.deadlines.get(frame.flow()), self.fault.as_mut())
            {
                // Attribute the miss by the flow's route state at
                // delivery time: detour-induced vs. plain congestion.
                if now.saturating_since(frame.injected_at()) > *deadline {
                    engine.note_miss(frame.flow());
                }
            }
            self.analyzer.note_delivered(
                frame.flow(),
                frame.class(),
                frame.injected_at(),
                now,
                deadline,
            );
            return;
        }
        let corrected = self.corrected_time(node, now);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let NodeRole::Switch { core, .. } = &mut self.roles[node.as_usize()] else {
            unreachable!("checked above");
        };
        core.receive_into(frame, corrected, &mut scratch);
        for d in &scratch {
            if let tsn_switch::pipeline::Disposition::Enqueued { port, .. } = d {
                let port = *port;
                // A busy port needs no kick: its pending TxComplete will
                // service the backlog. Under frame preemption the kick
                // stays, so an arriving express frame can interrupt the
                // in-flight preemptable segment.
                if now < *self.busy_until.at(node.as_usize(), port.as_usize())
                    && !self.config.frame_preemption
                {
                    self.stats.kicks_suppressed += 1;
                } else {
                    self.queue.schedule(now, Event::PortKick { node, port });
                }
            }
        }
        self.scratch = scratch;
    }

    fn on_port_kick(&mut self, node: NodeId, port: PortId, now: SimTime) {
        let corrected = self.corrected_time(node, now);
        let busy = *self.busy_until.at(node.as_usize(), port.as_usize());
        if now < busy {
            let express_ready = match &self.roles[node.as_usize()] {
                NodeRole::Switch { core, .. } => core.express_ready(port, corrected),
                NodeRole::Host(_) => return,
            };
            if self.config.frame_preemption && express_ready {
                match self.try_preempt(node, port, now) {
                    PreemptOutcome::Preempted => {} // fall through, wire free
                    PreemptOutcome::RetryAt(at) => {
                        self.queue.schedule(at, Event::PortKick { node, port });
                        return;
                    }
                    PreemptOutcome::No => {
                        // The pending TxComplete re-kicks at `busy`.
                        self.stats.kicks_suppressed += 1;
                        return;
                    }
                }
            } else {
                // The pending TxComplete re-kicks at `busy` if the port
                // still has backlog; no need to schedule a retry.
                self.stats.kicks_suppressed += 1;
                return;
            }
        }
        let preemption = self.config.frame_preemption;
        let suspended_waiting = self
            .wires
            .at(node.as_usize(), port.as_usize())
            .suspended
            .is_some();
        let NodeRole::Switch { core, .. } = &mut self.roles[node.as_usize()] else {
            return;
        };
        // 802.3br service order on the egress: express MAC first, then
        // the suspended fragment, then fresh preemptable frames.
        let next = if preemption {
            if let Some((queue, frame)) = core.dequeue_class(port, corrected, Some(true)) {
                Some((queue, frame, None))
            } else if suspended_waiting {
                let s = self
                    .wires
                    .at_mut(node.as_usize(), port.as_usize())
                    .suspended
                    .take()
                    .expect("checked");
                let bytes = s.remaining_wire_bytes;
                let queue = s.queue.expect("switch segments carry their queue");
                Some((queue, s.frame, Some(bytes)))
            } else {
                core.dequeue_class(port, corrected, Some(false))
                    .map(|(q, f)| (q, f, None))
            }
        } else {
            core.dequeue(port, corrected).map(|(q, f)| (q, f, None))
        };
        match next {
            Some((queue, frame, resume_bytes)) => {
                let wire_bytes = resume_bytes.unwrap_or_else(|| frame.wire_bytes());
                self.start_tx(node, port, frame, Some(queue), wire_bytes, now);
            }
            None => {
                // Nothing eligible now: wake at the next gate change or
                // credit recovery (measured on the corrected clock, applied
                // as an interval on the true clock, with a small guard so
                // clock error cannot strand us before the boundary).
                let NodeRole::Switch { core, .. } = &self.roles[node.as_usize()] else {
                    return;
                };
                if let Some(next) = core.next_dequeue_opportunity(port, corrected) {
                    let wait = next.saturating_since(corrected) + SimDuration::from_nanos(100);
                    self.queue
                        .schedule(now + wait, Event::PortKick { node, port });
                }
            }
        }
    }

    /// Finalizes a stepped run (see [`Network::step`]) into its report.
    #[must_use]
    pub fn finish(self) -> SimReport {
        let mut merged = tsn_switch::SwitchStats::new();
        let mut per_switch = Vec::new();
        let mut max_high_water = 0;
        let mut host_overflow = 0;
        for (idx, role) in self.roles.iter().enumerate() {
            match role {
                NodeRole::Switch { core, .. } => {
                    merged.merge(core.stats());
                    per_switch.push((NodeId::new(idx as u32), *core.stats()));
                    max_high_water = max_high_water.max(core.max_queue_high_water());
                }
                NodeRole::Host(host) => {
                    host_overflow += host.overflow_drops();
                }
            }
        }
        // Link utilization: transmitted wire bits over capacity × elapsed.
        let elapsed_ns = self.now.as_nanos().max(1);
        let mut link_utilization = Vec::new();
        for node_idx in 0..self.roles.len() {
            for (port_idx, &bytes) in self.tx_bytes.node_span(node_idx).iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let node = NodeId::new(node_idx as u32);
                let port = PortId::new(port_idx as u16);
                let Ok(link) = self.topology.link_at(node, port) else {
                    continue;
                };
                let capacity_bits =
                    link.rate().bits_per_sec() as u128 * elapsed_ns as u128 / 1_000_000_000;
                let used_bits = u128::from(bytes) * 8;
                link_utilization.push((
                    node,
                    port,
                    (used_bits as f64 / capacity_bits.max(1) as f64).min(1.0),
                ));
            }
        }
        let sync_worst_error_ns = self
            .sync_domain
            .as_ref()
            .map(|d| d.max_abs_error_ns(self.now))
            .unwrap_or(0.0);
        let degradation = match &self.fault {
            None => DegradationReport::default(),
            Some(engine) => {
                let (syncs_lost, sync_high_water) = self
                    .sync_domain
                    .as_ref()
                    .map(|d| {
                        (
                            d.syncs_lost(),
                            d.offset_high_water_ns().max(sync_worst_error_ns),
                        )
                    })
                    .unwrap_or((0, 0.0));
                DegradationReport {
                    faults_enabled: true,
                    link_down_events: engine.link_down_events,
                    link_up_events: engine.link_up_events,
                    frames_lost_on_dead_links: engine.frames_lost_on_dead_links,
                    frames_lost_to_wire: engine.frames_lost_to_wire,
                    frames_corrupted: engine.frames_corrupted,
                    fcs_drops: merged.drops(DropReason::FcsError) + engine.fcs_drops_host,
                    reroutes: engine.reroutes,
                    reroute_failures: engine.reroute_failures,
                    frames_lost_to_capacity: merged.drops(DropReason::QueueOverflow)
                        + merged.drops(DropReason::BufferExhausted)
                        + host_overflow,
                    syncs_lost,
                    sync_offset_high_water_ns: sync_high_water,
                    per_flow: engine.per_flow(),
                }
            }
        };
        let mut events = self.stats;
        events.queue_high_water = self.queue.high_water();
        SimReport {
            analyzer: self.analyzer,
            preemptions: self.preemptions,
            link_utilization,
            switch_stats: merged,
            per_switch,
            max_queue_high_water: max_high_water,
            host_overflow_drops: host_overflow,
            sync_worst_error_ns,
            events_processed: events.total(),
            events,
            degradation,
            ended_at: self.now,
        }
    }
}
