//! The paper's three committed HDL customizations, one per topology
//! preset (Table III's star / linear / ring columns).
//!
//! Each recipe pins topology, workload seed and derivation options, so
//! the emitted Verilog is a deterministic function of the templates and
//! the derivation pipeline. `examples/hdl_codegen.rs` writes these
//! bundles into the committed `generated_hdl*/` trees;
//! `tests/hdl_drift.rs` re-emits them and diffs against the commit.

use tsn_builder::{workloads, DeriveOptions, GateMode, TsnBuilder};
use tsn_hdl::HdlBundle;
use tsn_topology::presets;
use tsn_types::{SimDuration, TsnResult};

/// One committed emission: the bundle recipe plus its tree location.
pub struct HdlPreset {
    /// Directory the bundle is committed under (repo-relative).
    pub dir: &'static str,
    /// Emits the bundle.
    pub bundle: fn() -> TsnResult<HdlBundle>,
}

/// Every committed tree, in emission order.
pub const HDL_PRESETS: &[HdlPreset] = &[
    HdlPreset {
        dir: "generated_hdl",
        bundle: linear_bundle,
    },
    HdlPreset {
        dir: "generated_hdl_star",
        bundle: star_bundle,
    },
    HdlPreset {
        dir: "generated_hdl_ring",
        bundle: ring_bundle,
    },
];

/// The linear tree: the paper's 2-port column, CQF mode.
///
/// # Errors
///
/// Propagates preset, workload, derivation or emission failures.
pub fn linear_bundle() -> TsnResult<HdlBundle> {
    let topology = presets::linear(6, 2)?;
    let flows = workloads::iec60802_ts_flows(&topology, 256, 3)?;
    TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?
        .derive(&DeriveOptions::paper())?
        .generate_hdl()
}

/// The star tree: 3-port column, synthesized 802.1Qbv (TAS) windows with
/// switch-table aggregation.
///
/// # Errors
///
/// Propagates preset, workload, derivation or emission failures.
pub fn star_bundle() -> TsnResult<HdlBundle> {
    let topology = presets::star(3, 3)?;
    let flows = workloads::ts_flows_sized(&topology, 128, 128, 7)?;
    let mut options = DeriveOptions::automatic();
    options.slot = Some(SimDuration::from_micros(65));
    options.gate_mode = GateMode::Tas;
    options.aggregate_switch_tbl = true;
    TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?
        .derive(&options)?
        .generate_hdl()
}

/// The ring tree: 1-port column, the paper's CQF settings.
///
/// # Errors
///
/// Propagates preset, workload, derivation or emission failures.
pub fn ring_bundle() -> TsnResult<HdlBundle> {
    let topology = presets::ring(6, 3)?;
    let flows = workloads::iec60802_ts_flows(&topology, 256, 3)?;
    TsnBuilder::new(topology, flows, SimDuration::from_nanos(50))?
        .derive(&DeriveOptions::paper())?
        .generate_hdl()
}
