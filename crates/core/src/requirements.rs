//! Application requirements: the *input* to TSN-Builder's Top-down flow.
//!
//! Section II.A: "the features in TSN-related domains are pre-determined
//! and simple" — a scenario is its topology, its flow set and the required
//! synchronization precision. Everything else (Table II parameters, GCLs,
//! injection offsets) is derived.

use tsn_topology::{Route, RouteTreeCache, Topology};
use tsn_types::{FlowSet, SimDuration, TsFlowSpec, TsnError, TsnResult};

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
    topology: Topology,
    flows: FlowSet,
    /// `routes[i]` is the shortest-path route of the `i`-th flow of
    /// `flows`, computed once at construction.
    routes: Vec<Route>,
    sync_precision: SimDuration,
}

impl AppRequirements {
    /// Creates and validates a requirement set: every flow must run
    /// host-to-host over an existing route, and at least one TS flow must
    /// exist (otherwise there is nothing to customize for). Every flow is
    /// routed here, once, through one [`RouteTreeCache`]; the planners
    /// read the stored routes instead of routing again.
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
        let mut route_trees = RouteTreeCache::new();
        let mut routes = Vec::with_capacity(flows.len());
        for flow in flows.iter() {
            for node in [flow.src(), flow.dst()] {
                if !topology.node(node)?.is_host() {
                    return Err(TsnError::invalid_parameter(
                        "flows",
                        format!("{} endpoint {node} is not a host", flow.id()),
                    ));
                }
            }
            routes.push(route_trees.route(&topology, flow.src(), flow.dst())?);
        }
        Ok(AppRequirements {
            topology,
            flows,
            routes,
            sync_precision,
        })
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

    #[test]
    fn rejects_zero_precision() {
        let topo = presets::ring(4, 2).expect("builds");
        let mut flows = FlowSet::new();
        flows.push(a_flow(&topo, 0));
        assert!(AppRequirements::new(topo, flows, SimDuration::ZERO).is_err());
    }
}
