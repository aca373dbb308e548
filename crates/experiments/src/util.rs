//! Shared plumbing of the `paper` artifacts and `fault_sweep`.

use crate::json::Json;
use std::path::Path;
use std::sync::Arc;
use tsn_builder::AppRequirements;
use tsn_sim::sweep::SweepError;
use tsn_topology::Topology;
use tsn_types::{FlowSet, SimDuration};

/// Writes an experiment's JSON record to `results/<name>.json`, so
/// EXPERIMENTS.md entries are reproducible, and says where on stdout.
///
/// # Errors
///
/// When `results/` cannot be created or the file cannot be written: a
/// message naming the path and the I/O error.
pub fn dump_json(name: &str, value: &Json) -> Result<(), String> {
    let dir = Path::new("results");
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, value.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[results written to {}]", path.display());
    Ok(())
}

/// Unwraps a sweep's results, panicking with the failing entry's index
/// and error on the first bad one (a failed build is a broken
/// experiment, not a user error). Results keep their input order.
#[must_use]
pub fn expect_outcomes<T>(what: &str, results: Vec<Result<T, SweepError>>) -> Vec<T> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("{what}: scenario #{i} failed: {e}")))
        .collect()
}

/// The requirements of one experiment network at the paper's 50 ns sync
/// precision, validated and routed once, for every sweep point over it
/// to share.
///
/// # Panics
///
/// When the flows do not fit the topology (a broken experiment, not a
/// user error).
#[must_use]
pub fn requirements(topology: Topology, flows: FlowSet) -> Arc<AppRequirements> {
    let requirements = AppRequirements::new(topology, flows, SimDuration::from_nanos(50));
    Arc::new(requirements.expect("experiment requirements are valid"))
}
