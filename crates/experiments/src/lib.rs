//! Regenerators for every table and figure of the TSN-Builder paper.
//!
//! One binary per artifact (run with `cargo run -p tsn-experiments --release --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table I — queue/buffer configurations and their BRAM totals |
//! | `fig2` | Fig. 2 — TS latency vs BE/RC background for both Table I cases |
//! | `table3` | Table III — BRAM usage: commercial vs star/linear/ring |
//! | `fig7a` | Fig. 7(a) — latency vs hop count |
//! | `fig7b` | Fig. 7(b) — latency vs packet size |
//! | `fig7c` | Fig. 7(c) — latency vs slot length |
//! | `fig7d` | Fig. 7(d) — latency vs RC+BE background load |
//! | `sync_precision` | §IV.A — gPTP precision across the 6-switch chain |
//! | `itp_ablation` | §V — injection planning strategies vs queue depth |
//!
//! Each binary prints a paper-style table and writes `results/<name>.json`.
//! The multi-point binaries run their sweep in parallel through
//! [`tsn_builder::scenario`]; set `TSN_SWEEP_WORKERS=1` to force a serial
//! run (the reports are identical either way).

pub mod json;
pub mod limits;
pub mod util;
