//! Application requirements: the *input* to TSN-Builder's Top-down flow.
//!
//! Section II.A: "the features in TSN-related domains are pre-determined
//! and simple" — a scenario is its topology, its flow set and the required
//! synchronization precision. Everything else (Table II parameters, GCLs,
//! injection offsets) is derived.

use std::sync::{Arc, OnceLock};

use tsn_sim::network::{GclSchedule, NetworkTemplate, SimConfig};
use tsn_topology::{FlowRouter, Route, RouteCacheStats, Topology};
use tsn_types::digest::Digest;
use tsn_types::{FlowMap, FlowSet, SimDuration, TsFlowSpec, TsnError, TsnResult};

/// One application scenario.
///
/// # Example
///
/// ```
/// use tsn_builder::requirements::AppRequirements;
/// use tsn_topology::presets;
/// use tsn_types::{FlowSet, TsFlowSpec, FlowId, SimDuration};
///
/// let topo = presets::ring(6, 3)?;
/// let hosts = topo.hosts();
/// let mut flows = FlowSet::new();
/// flows.push(TsFlowSpec::new(
///     FlowId::new(0), hosts[0], hosts[1],
///     SimDuration::from_millis(10), SimDuration::from_millis(2), 64,
/// )?.into());
/// let req = AppRequirements::new(topo, flows, SimDuration::from_nanos(50))?;
/// assert_eq!(req.flows().len(), 1);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AppRequirements {
    /// Shared with every [`NetworkTemplate`] built from these
    /// requirements, so a template costs no copy of the scenario.
    topology: Arc<Topology>,
    flows: Arc<FlowSet>,
    /// `routes[i]` is the shortest-path route of the `i`-th flow of
    /// `flows`, computed once at construction.
    routes: Vec<Route>,
    /// The router's counters while it computed `routes`.
    route_cache: RouteCacheStats,
    sync_precision: SimDuration,
    /// [`AppRequirements::digest`], computed on first use.
    digest: OnceLock<u64>,
}

impl AppRequirements {
    /// Creates and validates a requirement set: every flow must run
    /// host-to-host over an existing route, and at least one TS flow must
    /// exist (otherwise there is nothing to customize for). Every flow is
    /// routed here, once for the whole pipeline, through one
    /// [`FlowRouter`]: the planners read the stored routes, and
    /// `DerivedConfig::template` installs them, so nothing downstream
    /// routes again.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] for endpoint/flow-set problems.
    /// * [`TsnError::NoRoute`] / [`TsnError::UnknownNode`] for unroutable
    ///   flows.
    pub fn new(topology: Topology, flows: FlowSet, sync_precision: SimDuration) -> TsnResult<Self> {
        if flows.ts_count() == 0 {
            return Err(TsnError::invalid_parameter(
                "flows",
                "a TSN scenario needs at least one time-sensitive flow",
            ));
        }
        if sync_precision.is_zero() {
            return Err(TsnError::invalid_parameter(
                "sync_precision",
                "must be non-zero",
            ));
        }
        let mut router = FlowRouter::new(&topology);
        let routes = flows
            .iter()
            .map(|flow| router.route(flow))
            .collect::<TsnResult<Vec<_>>>()?;
        let route_cache = router.stats();
        Ok(AppRequirements {
            topology: Arc::new(topology),
            flows: Arc::new(flows),
            routes,
            route_cache,
            sync_precision,
            digest: OnceLock::new(),
        })
    }

    /// The scenario's identity: a [`Digest`] of the topology, the flow
    /// set and the sync precision (the routes follow from the first
    /// two). Computed on first use and kept, so a sweep that shares one
    /// requirements value hashes the scenario once, and a caller that
    /// never asks pays nothing.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| Digest::of(&(&*self.topology, &*self.flows, self.sync_precision)))
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The flow set.
    #[must_use]
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// Every flow's route, in flow-set order (`routes()[i]` belongs to
    /// `flows().iter().nth(i)`).
    #[must_use]
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// The TS flows with their routes, in flow-set order.
    pub fn ts_routes(&self) -> impl Iterator<Item = (&TsFlowSpec, &Route)> {
        self.flows
            .iter()
            .zip(&self.routes)
            .filter_map(|(flow, route)| flow.as_ts().map(|ts| (ts, route)))
    }

    /// Required synchronization precision (the paper's prototype achieves
    /// < 50 ns).
    #[must_use]
    pub fn sync_precision(&self) -> SimDuration {
        self.sync_precision
    }

    /// The network template over this scenario that installs the stored
    /// routes and reports the router's counters — the one place the
    /// routes reach the simulator.
    pub(crate) fn template(
        &self,
        offsets: &FlowMap<SimDuration>,
        config: SimConfig,
        gcls: GclSchedule,
    ) -> TsnResult<NetworkTemplate> {
        NetworkTemplate::with_routes(
            Arc::clone(&self.topology),
            Arc::clone(&self.flows),
            &self.routes,
            self.route_cache,
            offsets,
            config,
            gcls,
        )
    }

    /// The largest switch-hop count over all TS flows.
    #[must_use]
    pub fn max_ts_hops(&self) -> usize {
        self.ts_routes()
            .map(|(_, route)| route.switch_hops())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;
    use tsn_types::{FlowId, TsFlowSpec};

    fn a_flow(topo: &Topology, id: u32) -> tsn_types::FlowSpec {
        let hosts = topo.hosts();
        TsFlowSpec::new(
            FlowId::new(id),
            hosts[0],
            hosts[1],
            SimDuration::from_millis(10),
            SimDuration::from_millis(2),
            64,
        )
        .expect("valid flow")
        .into()
    }

    #[test]
    fn accepts_a_valid_scenario() {
        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        let req =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid scenario");
        assert_eq!(req.max_ts_hops(), 2);
    }

    #[test]
    fn rejects_scenarios_without_ts_flows() {
        let topo = presets::ring(4, 2).expect("builds");
        assert!(AppRequirements::new(topo, FlowSet::new(), SimDuration::from_nanos(50)).is_err());
    }

    #[test]
    fn rejects_switch_endpoints() {
        let topo = presets::ring(4, 2).expect("builds");
        let sw = topo.switches()[0];
        let host = topo.hosts()[0];
        let mut flows = FlowSet::new();
        flows.push(
            TsFlowSpec::new(
                FlowId::new(0),
                host,
                sw,
                SimDuration::from_millis(10),
                SimDuration::from_millis(2),
                64,
            )
            .expect("spec itself is valid")
            .into(),
        );
        assert!(AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).is_err());
    }

    /// One endpoint check for the whole pipeline: requirements and a
    /// from-scratch network build reject the same bad flow set with the
    /// same error.
    #[test]
    fn bad_endpoints_fail_alike_in_requirements_and_network_builds() {
        use tsn_sim::network::{Network, SimConfig};
        let topo = presets::ring(4, 2).expect("builds");
        let host = topo.hosts()[0];
        let missing = tsn_types::NodeId::new(999);
        for bad in [topo.switches()[0], missing] {
            let mut flows = FlowSet::new();
            flows.push(
                TsFlowSpec::new(
                    FlowId::new(0),
                    host,
                    bad,
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(2),
                    64,
                )
                .expect("spec itself is valid")
                .into(),
            );
            let from_requirements =
                AppRequirements::new(topo.clone(), flows.clone(), SimDuration::from_nanos(50))
                    .expect_err("bad endpoint");
            let Err(from_build) = Network::build(
                topo.clone(),
                flows,
                &tsn_types::FlowMap::new(),
                SimConfig::paper_defaults(),
            ) else {
                panic!("a network with a bad endpoint builds");
            };
            assert_eq!(from_requirements, from_build);
            if bad == missing {
                assert_eq!(from_build, TsnError::UnknownNode(missing));
            } else {
                assert!(
                    matches!(&from_build, TsnError::InvalidParameter { name, .. } if name == "flows"),
                    "{from_build}"
                );
            }
        }
    }

    #[test]
    fn digest_is_the_content_not_the_build() {
        let build = |switches: usize, flow_count: u32, precision_ns: u64| {
            let topo = presets::ring(switches, 2).expect("builds");
            let mut flows = FlowSet::new();
            for id in 0..flow_count {
                flows.push(a_flow(&topo, id));
            }
            AppRequirements::new(topo, flows, SimDuration::from_nanos(precision_ns))
                .expect("valid scenario")
                .digest()
        };
        let reference = build(4, 2, 50);
        assert_eq!(reference, build(4, 2, 50), "equal content built twice");
        assert_ne!(reference, build(5, 2, 50), "the topology moves it");
        assert_ne!(reference, build(4, 3, 50), "the flow set moves it");
        assert_ne!(reference, build(4, 2, 40), "the sync precision moves it");

        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        flows.push(a_flow(&topo, 1));
        let requirements =
            AppRequirements::new(topo, flows, SimDuration::from_nanos(50)).expect("valid");
        assert_eq!(requirements.digest(), reference);
        assert_eq!(requirements.clone().digest(), reference, "clones keep it");
    }

    #[test]
    fn rejects_zero_precision() {
        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        assert!(AppRequirements::new(topo, flows, SimDuration::ZERO).is_err());
    }
}
