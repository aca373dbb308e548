//! Network topologies for the TSN-Builder reproduction.
//!
//! A [`Topology`] is a graph of switches and hosts joined by point-to-point
//! Ethernet links. The paper's evaluation (Section IV.A) uses three
//! industrial-control topologies, all available as presets:
//!
//! * [`presets::star`] — a core switch with *n* child switches (the paper
//!   uses 3 children → 4 switches, up to **3** enabled TSN ports),
//! * [`presets::linear`] — a chain of switches with bidirectional
//!   forwarding (paper: 6 switches, **2** enabled TSN ports),
//! * [`presets::ring`] — a ring with unidirectional deterministic
//!   transmission (paper: 6 switches, **1** enabled TSN port).
//!
//! Routing ([`Topology::route`]) is shortest-path BFS that honours link
//! direction, so the unidirectional ring routes the way the paper's
//! deterministic ring does. [`analysis`] computes the per-switch *enabled
//! TSN port* counts that drive the resource customization of Table III.
//!
//! # Example
//!
//! ```
//! use tsn_topology::presets;
//!
//! let ring = presets::ring(6, 3)?; // 6 switches, hosts on the first 3
//! let (a, b) = (ring.hosts()[0], ring.hosts()[1]);
//! let route = ring.route(a, b)?;
//! assert!(route.switch_hops() >= 1);
//! # Ok::<(), tsn_types::TsnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod graph;
pub mod link;
pub mod node;
pub mod presets;
pub mod route;

pub use analysis::EnabledPorts;
pub use graph::{FlowRouter, RouteCacheStats, RouteTree, Topology};
pub use link::{Link, LinkDirection, LinkEnd, LinkId};
pub use node::{Node, NodeKind};
pub use route::{Route, RouteHop};
