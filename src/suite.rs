//! Umbrella crate; see `tsn_builder`.
//!
//! Besides re-exporting nothing (each layer is consumed directly), this
//! crate hosts the canonical HDL emission recipes shared by
//! `examples/hdl_codegen.rs` (which writes the committed `generated_hdl*/`
//! trees), `tests/hdl_drift.rs` (which re-emits them and fails on any
//! byte of drift) and `tests/hdl_machine_check.rs` (which parses and
//! lints them).

pub mod hdl_presets;
