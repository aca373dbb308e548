//! Regenerators for every table and figure of the TSN-Builder paper.
//!
//! Every paper artifact is an entry of [`paper::ARTIFACTS`], run with
//! `cargo run --release -p tsn-experiments --bin paper -- [NAME...]`
//! (all of them, in table order, when no name is given). Each prints a
//! paper-style table and writes `results/<name>.json`; the committed
//! copies under `verify/outputs/` pin both byte for byte. The
//! `fault_sweep` and `customize` binaries are the two other front ends.
//! Sweeps run in parallel; set `TSN_SWEEP_WORKERS=1` to force a serial
//! run (the output is identical either way).

pub mod json;
pub mod limits;
pub mod paper;
pub mod util;
