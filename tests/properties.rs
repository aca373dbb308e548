//! Property-style tests over the core data structures and invariants,
//! driven by the `tsn-verify` runner: each test replays its historical
//! seed family at its full case count through the shrinking harness, so
//! a failure is minimized to a smallest counterexample and can be pinned
//! into `verify/corpus/` (where the same seed families are committed as
//! regression entries replayed by `verify` and CI). This is the one
//! runner of the families, one test per entry of
//! `tsn_verify::props::PROPERTIES`.
//!
//! The properties themselves live in `tsn_verify::props` — one oracle
//! per invariant, shared between these tests, the `verify` CLI and the
//! corpus replay.

use tsn_types::SplitMix64;
use tsn_verify::props::property_by_name;
use tsn_verify::runner::Runner;

/// Runs one ported property over its full legacy seed family (the exact
/// seed and case count `tests/properties.rs` used before the port) and
/// panics with the shrunk counterexample on failure.
fn check(name: &str) {
    let prop = property_by_name(name).expect("property is registered");
    let runner = Runner::new(prop.legacy_cases, prop.legacy_seed);
    let report = runner.run(
        prop.name,
        &|rng: &mut SplitMix64| prop.spec.generate(rng),
        |case| (prop.oracle)(case),
    );
    if let Some(failure) = &report.failure {
        panic!(
            "{name}: {}\n  seed: 0x{:x}\n  original: {:?}\n  shrunk ({} steps): {:?}\n  \
             reproduce: cargo run -q --release -p tsn-verify --bin verify -- \
             --oracle {name} --seed 0x{:x} --cases 1",
            failure.shrunk.message,
            failure.seed,
            failure.original,
            failure.shrunk.steps,
            failure.shrunk.case,
            failure.seed,
        );
    }
    assert_eq!(report.executed, prop.legacy_cases);
    assert_eq!(
        report.discarded, 0,
        "{name}: config properties never discard"
    );
}

/// The exact-bits policy is a lower bound and BRAM36 an upper bound on
/// the paper's accounting, for every configuration.
#[test]
fn policy_ordering_holds() {
    check("policy-ordering");
}

/// Growing any single resource never shrinks the total (monotonicity of
/// the accounting).
#[test]
fn accounting_is_monotone_in_depth_and_buffers() {
    check("accounting-monotone");
}

/// Eq. (1): bounds are ordered, monotone in hops, and scale linearly with
/// the slot.
#[test]
fn latency_bounds_properties() {
    check("latency-bounds");
}

/// MAC addresses round-trip through text and integers.
#[test]
fn mac_roundtrips() {
    check("mac-roundtrip");
}

/// Slot arithmetic: `slot_index` is consistent with `next_slot_boundary`
/// and `align_up`.
#[test]
fn slot_arithmetic() {
    check("slot-arithmetic");
}

/// LCM of durations is divisible by both operands.
#[test]
fn duration_lcm_divisibility() {
    check("duration-lcm");
}

/// A capacity-limited table never holds more than its capacity, no matter
/// the insert/remove sequence.
#[test]
fn cap_table_never_overflows() {
    check("cap-table");
}

/// Token-bucket long-run throughput never exceeds rate × time + burst.
#[test]
fn meter_respects_its_rate() {
    check("meter-rate");
}

/// GCL state repeats with its cycle.
#[test]
fn gcl_is_periodic() {
    check("gcl-periodic");
}

/// Sharded latency statistics merge to the same aggregate a single pass
/// records, in any shard order.
#[test]
fn latency_stats_merge_matches_single_pass() {
    check("latency-merge");
}

/// The fat-tree builder produces the Clos arithmetic, with every host
/// pair at most 5 switch hops apart.
#[test]
fn fat_tree_shape() {
    check("fat-tree-shape");
}

/// The multi-ring builder produces its switch, host and link counts,
/// with bounded routes.
#[test]
fn multi_ring_shape() {
    check("multi-ring-shape");
}

/// The log2 histogram sketch lands every quantile within one bucket of
/// the exact order statistic.
#[test]
fn quantile_rank_error() {
    check("quantile-rank-error");
}
