//! `tsn-verify` — the randomized differential-testing harness.
//!
//! A self-contained property-testing engine (no external crates): case
//! generation over [`tsn_types::SplitMix64`] ([`gen`]), greedy
//! component-wise minimization ([`shrink`]), a runner that persists every
//! shrunk failure into the committed regression corpus ([`runner`],
//! [`corpus`]) — plus the six cross-layer oracles that differentially
//! test the builder, the simulator and the HDL emitter against each
//! other ([`oracles`]) and the ported data-structure properties
//! ([`props`]).
//!
//! Entry points:
//!
//! * `cargo run -p tsn-verify --bin verify` — the CLI (`--smoke` for the
//!   CI budgeted run, `--oracle`/`--seed`/`--cases` to reproduce a
//!   reported failure exactly).
//! * `verify/corpus/*.case` — the committed corpus, replayed by the CLI
//!   and by CI on every run.

pub mod case;
pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod props;
pub mod runner;
pub mod shrink;

pub use case::ScenarioCase;
pub use corpus::{CaseCodec, CorpusEntry};
pub use gen::{Gen, Range};
pub use runner::{CaseFailure, PropertyReport, ReplayStats, Runner, Verdict};
pub use shrink::{shrink_to_minimal, Shrink, Shrunk};
