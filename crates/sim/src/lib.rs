//! Discrete-event simulation of TSN networks built from TSN-Builder
//! switches.
//!
//! This crate replaces the paper's hardware testbed (six Zynq-7020 boards,
//! TSNNic traffic testers, a TSN analyzer, 1 Gbps cabling): the same
//! switch logic (`tsn-switch`) is wrapped with link serialization and
//! propagation timing, hosts generate the paper's TS/RC/BE workloads, and
//! an analyzer measures latency, jitter (latency standard deviation) and
//! packet loss per flow.
//!
//! * [`event`] — deterministic future-event list;
//! * [`fault`] — seeded fault injection (link outages/flaps, wire loss
//!   and corruption, clock perturbation) with graceful degradation;
//! * [`host`] — the TSNNic model (periodic TS generators, constant-rate
//!   RC/BE generators, strict-priority NIC);
//! * [`network`] — assembly (table programming, shapers, gPTP domain) and
//!   the event loop;
//! * [`analyzer`] / [`report`] — measurement;
//! * [`sweep`] — the parallel scenario-sweep runner and planning cache.
//!
//! # Example
//!
//! ```
//! use tsn_sim::network::{Network, SimConfig};
//! use tsn_topology::presets;
//! use tsn_types::{FlowMap, FlowSet, TsFlowSpec, FlowId, SimDuration};
//!
//! let topo = presets::ring(3, 2)?;
//! let hosts = topo.hosts();
//! let mut flows = FlowSet::new();
//! flows.push(TsFlowSpec::new(
//!     FlowId::new(0), hosts[0], hosts[1],
//!     SimDuration::from_millis(10), SimDuration::from_millis(4), 64,
//! )?.into());
//! let mut config = SimConfig::paper_defaults();
//! config.duration = SimDuration::from_millis(30);
//! let report = Network::build(topo, flows, &FlowMap::new(), config)?.run();
//! assert_eq!(report.ts_lost(), 0);
//! # Ok::<(), tsn_types::TsnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod event;
pub mod fault;
pub mod host;
pub mod network;
pub mod report;
pub mod sweep;

pub use analyzer::{
    hist_bucket, hist_bucket_bounds, Analyzer, FlowRecord, LatencyMoments, LatencyStats,
    HIST_BUCKETS,
};
pub use fault::{FaultConfig, FlowDegradation, LinkFaultProfile, LinkFlap, LinkOutage};
pub use host::{Generator, Host};
pub use network::{
    mac_for, vlan_for, ConfigDelta, GclSchedule, Network, NetworkTemplate, SimConfig, SyncSetup,
};
pub use report::{DegradationReport, EventStats, RouteCacheStats, SimReport};
pub use sweep::{run_sweep, CacheStats, PlanCache, SweepError};
