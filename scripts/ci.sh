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
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check

# Docs must build warning-free (broken intra-doc links, missing docs).
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace

# HDL machine check: parse the committed generated_hdl*/ trees and the
# freshly emitted preset bundles into the structural IR and run the full
# lint rule set (width mismatches, unused ports, undeclared identifiers,
# address-width violations, ...). Any finding is an error — shipped RTL
# lints clean by invariant.
run cargo run -q --release -p tsn-builder-suite --bin hdl_lint

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
# scenario still run end to end, and gates the smoke's geomean speedup
# vs the pinned baselines in BENCH_2.json at >= 0.95x. The tracked
# (full-budget) JSON file is restored afterwards so a smoke run never
# overwrites the recorded numbers.
tracked_bench2="$(mktemp)"
cp BENCH_2.json "$tracked_bench2"
TSN_BENCH_MS="${TSN_BENCH_MS:-25}" run cargo bench -q -p tsn-bench --bench simulation
smoke_geomean2="$(sed -n 's/.*"geomean_speedup": \([0-9.]*\).*/\1/p' BENCH_2.json)"
cp "$tracked_bench2" BENCH_2.json
rm -f "$tracked_bench2"
if [ -z "$smoke_geomean2" ]; then
    echo "bench smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> bench smoke geomean ${smoke_geomean2}x vs pinned baselines (gate: >= 0.95)"
if ! awk -v g="$smoke_geomean2" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "bench smoke geomean ${smoke_geomean2}x regressed below 0.95x baseline" >&2
    exit 1
fi

# Zero-allocation proof: the counting-allocator test asserts the
# event loop's steady state performs no heap allocation after warmup on
# the large-plant workload. Release mode, on its own line so a hot-path
# allocation regression is named here rather than buried in the
# workspace test wall.
run cargo test -q --release -p tsn-sim --test zero_alloc

# Layer-bench smokes: run every planning (CQF, ITP, derive, TAS,
# per-switch) and template (table lookups, gate control, HDL emission)
# bench once on a tiny budget, so a panicking `expect` inside one fails
# here. No timing gate.
TSN_BENCH_MS=5 run cargo bench -q -p tsn-bench --bench planning
TSN_BENCH_MS=5 run cargo bench -q -p tsn-bench --bench templates

# Scale smoke: the 10k-flow cases of the scale bench — the plant
# throughput case (the 100k and opt-in 1M cases stay full-budget-only)
# plus the reconfigure-vs-rebuild case the same filter now selects. The
# throughput case asserts byte-identical reports across event-queue
# backends and a < 1 GiB peak RSS; the reconfig
# case asserts the reconfigure-path report digests identically to a
# from-scratch build. The gates below add an absolute throughput floor,
# a smoke RSS ceiling, the events/sec geomeans vs the pinned baselines
# in BENCH_7.json / BENCH_10.json (same >= 0.95x rule as BENCH_2), and
# an incremental-reconfigure speedup floor: >= 2x over from-scratch
# rebuild at smoke scale (the recorded full-budget 100k case clears
# >= 5x; 10k rebuilds are small enough that fixed per-instantiation
# costs compress the ratio). Both tracked full-budget JSON files are
# restored afterwards.
tracked_bench7="$(mktemp)"
tracked_bench10="$(mktemp)"
cp BENCH_7.json "$tracked_bench7"
cp BENCH_10.json "$tracked_bench10"
run cargo bench -q -p tsn-bench --bench scale -- flows/10k
scale_geomean="$(sed -n 's/.*"events_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_7.json)"
scale_eps="$(sed -n 's/.*"events_per_sec": \([0-9.]*\).*/\1/p' BENCH_7.json | head -n1)"
scale_rss="$(sed -n 's/.*"peak_rss_bytes": \([0-9]*\).*/\1/p' BENCH_7.json | head -n1)"
reconfig_geomean="$(sed -n 's/.*"events_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_10.json)"
reconfig_speedup="$(sed -n 's/.*"reconfigure_speedup": \([0-9.]*\).*/\1/p' BENCH_10.json | head -n1)"
cp "$tracked_bench7" BENCH_7.json
cp "$tracked_bench10" BENCH_10.json
rm -f "$tracked_bench7" "$tracked_bench10"
if [ -z "$scale_geomean" ] || [ -z "$scale_eps" ] \
    || [ -z "$reconfig_geomean" ] || [ -z "$reconfig_speedup" ]; then
    echo "scale smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> scale smoke: ${scale_eps} events/sec at 10k flows (floor: 300000)"
if ! awk -v e="$scale_eps" 'BEGIN { exit !(e >= 300000) }'; then
    echo "scale smoke throughput ${scale_eps} events/sec fell below the 300k floor" >&2
    exit 1
fi
if [ -n "$scale_rss" ]; then
    echo "==> scale smoke: peak RSS $((scale_rss >> 20))MiB at 10k flows (ceiling: 512MiB)"
    if [ "$scale_rss" -gt 536870912 ]; then
        echo "scale smoke peak RSS ${scale_rss} bytes breached the 512 MiB ceiling" >&2
        exit 1
    fi
fi
echo "==> scale smoke geomean ${scale_geomean}x vs pinned events/sec baselines (gate: >= 0.95)"
if ! awk -v g="$scale_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "scale bench geomean ${scale_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi
echo "==> reconfig smoke: ${reconfig_speedup}x incremental reconfigure vs rebuild at 10k flows (floor: 2)"
if ! awk -v s="$reconfig_speedup" 'BEGIN { exit !(s >= 2) }'; then
    echo "incremental reconfigure is only ${reconfig_speedup}x a from-scratch rebuild, below the 2x smoke floor" >&2
    exit 1
fi
echo "==> reconfig smoke geomean ${reconfig_geomean}x vs pinned events/sec baselines (gate: >= 0.95)"
if ! awk -v g="$reconfig_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "reconfigure-path bench geomean ${reconfig_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi

# DSE smoke: the design-space-search service answers its three
# deterministic 100-query family batches (20 unique queries x 5 labels
# each) within the TSN_DSE_MS budget, then the gates below check the
# queries/sec geomean vs the pinned baselines in BENCH_9.json (same
# >= 0.95x rule as the other benches) and that the intra-batch dedup
# actually happened (answer-cache hit rate exactly 0.8 by construction).
# `dse --smoke` itself exits 1 when a family runs more than 3 candidate
# simulations per unique query (an exact counter, host-independent).
# The dse-optimality corpus pin (64 randomized queries re-checked in
# both optimality directions) already replayed in the verify step above.
# The tracked full-budget BENCH_9.json is restored afterwards.
tracked_bench9="$(mktemp)"
cp BENCH_9.json "$tracked_bench9"
TSN_DSE_MS="${TSN_DSE_MS:-2000}" run cargo run -q --release -p tsn-dse --bin dse -- --smoke
dse_geomean="$(sed -n 's/.*"queries_per_sec_geomean_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_9.json)"
dse_hit_rate="$(sed -n 's/.*"answers_hit_rate": \([0-9.]*\).*/\1/p' BENCH_9.json | head -n1)"
cp "$tracked_bench9" BENCH_9.json
rm -f "$tracked_bench9"
if [ -z "$dse_geomean" ] || [ -z "$dse_hit_rate" ]; then
    echo "dse smoke wrote incomplete summary fields" >&2
    exit 1
fi
echo "==> dse smoke geomean ${dse_geomean}x vs pinned queries/sec baselines (gate: >= 0.95)"
if ! awk -v g="$dse_geomean" 'BEGIN { exit !(g >= 0.95) }'; then
    echo "dse smoke geomean ${dse_geomean}x regressed below 0.95x baseline" >&2
    exit 1
fi
echo "==> dse smoke answer-cache hit rate ${dse_hit_rate} (expected: 0.8)"
if ! awk -v h="$dse_hit_rate" 'BEGIN { exit !(h >= 0.79 && h <= 0.81) }'; then
    echo "dse answer-cache hit rate ${dse_hit_rate} is off the designed 0.8 duplication ratio — fingerprint dedup is broken" >&2
    exit 1
fi

echo "CI gate passed."
