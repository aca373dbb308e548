#!/usr/bin/env bash
# The repository's CI gate. Run from the workspace root:
#
#   ./scripts/ci.sh
#
# Everything is offline — no crates are fetched. TSN_SWEEP_WORKERS and
# TSN_BENCH_MS can be exported beforehand to pin worker counts / bench
# budgets on constrained machines.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --all-targets
run cargo test -q --workspace

# The benchmark harness is its own workspace on the library API; a
# change to that API which breaks it fails here, not in a bench run.
run cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check

# Docs must build warning-free (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace

# HDL machine check: parse the committed generated_hdl*/ trees and the
# freshly emitted preset bundles into the structural IR and run the full
# lint rule set (width mismatches, unused ports, undeclared identifiers,
# address-width violations, ...). Any finding is an error — shipped RTL
# lints clean by invariant. Its own line, so a finding is named here
# rather than buried in the workspace test wall.
run cargo test -q --release -p tsn-builder-suite --test hdl_machine_check

# Fault-sweep smoke: the full intensity grid on a short horizon. The
# binary itself asserts monotone deadline-miss growth and that all three
# fault families fired, so a broken fault model fails CI here.
run cargo run -q --release -p tsn-experiments --bin fault_sweep -- --smoke

# Differential-testing smoke: replay the committed verify/corpus/ (seed
# pins + shrunk regressions), then run every cross-layer oracle and
# property on fresh random cases within the TSN_VERIFY_MS budget. The
# hdl-cost-agreement pin alone replays 128 cases x 8 randomized
# ResourceConfigs = 1024 parse/lint/cost checks against tsn-resource.
# Any failure is shrunk to a minimal case, persisted into verify/corpus/
# and printed with its reproduction command.
TSN_VERIFY_MS="${TSN_VERIFY_MS:-4000}" \
    run cargo run -q --release -p tsn-verify --bin verify -- --smoke

# Bench smoke: a tiny TSN_BENCH_MS budget proves the harness and every
# scenario still run end to end. This bench and the scale and DSE ones
# below enforce their own gates (crates/bench/src/record.rs), exiting 1
# on a breach; smoke budgets never rewrite a tracked BENCH file. Gate:
# geomean speedup vs the pins in BENCH_2.json >= 0.95x.
TSN_BENCH_MS="${TSN_BENCH_MS:-25}" run cargo bench -q -p tsn-bench --bench simulation

# Zero-allocation proof: the counting-allocator test asserts the
# event loop's steady state performs no heap allocation after warmup on
# the large-plant workload. Release mode, on its own line so a hot-path
# allocation regression is named here rather than buried in the
# workspace test wall.
run cargo test -q --release -p tsn-sim --test zero_alloc

# Footprint pin: the live heap a 10k-flow plant's template and network
# instance hold, each at most 5% over its pin (tests/plant_footprint.rs).
# Its own line, so a capacity-sized reserve or a per-flow allocation that
# comes back is named here.
run cargo test -q --release -p tsn-builder-suite --test plant_footprint

# Paper artifacts: every `paper` artifact's stdout and results JSON, and
# `fault_sweep`'s (full and --smoke), byte-identical to the committed
# verify/outputs/ (crates/experiments/tests/outputs.rs). Its own line,
# so a drifted artifact is named here rather than buried in the
# workspace test wall.
run cargo test -q --release -p tsn-experiments --test outputs

# Layer-bench smokes: run every planning (CQF, ITP, derive, TAS,
# per-switch) and template (table lookups, gate control, HDL emission
# and the machine check's hdl/parse, hdl/lint and hdl/cost_check) bench
# once on a tiny budget, so a panicking `expect` inside one fails here.
# No timing gate.
TSN_BENCH_MS=5 run cargo bench -q -p tsn-bench --bench planning
TSN_BENCH_MS=5 run cargo bench -q -p tsn-bench --bench templates

# Scale smoke: the 10k-flow plant case (byte-identical reports across
# event-queue backends, < 1 GiB peak RSS) and the reconfigure-vs-rebuild
# case (reconfigure-path report identical to a from-scratch build).
# Gates: >= 300k events/sec, <= 512 MiB peak RSS, events/sec geomeans
# vs the pins in BENCH_7.json / BENCH_10.json >= 0.95x, and incremental
# reconfigure >= 2x a from-scratch rebuild.
run cargo bench -q -p tsn-bench --bench scale -- flows/10k

# DSE smoke: the design-space-search service answers its three
# deterministic 100-query family batches (20 unique queries x 5 labels
# each). Gates: queries/sec geomean vs the pins in BENCH_9.json >=
# 0.95x, answer-cache hit rate in [0.79, 0.81] (0.8 when dedup works),
# and at most 1.2 candidate simulations per unique query (an exact,
# host-independent counter; a certified query costs one). The dse-optimality corpus pin already
# replayed in the verify step above.
TSN_BENCH_MS="${TSN_BENCH_MS:-2000}" run cargo bench -q -p tsn-bench --bench dse

echo "CI gate passed."
