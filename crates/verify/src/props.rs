//! The data-structure properties, ported from the seed repo's
//! `tests/properties.rs` onto the shrinking runner.
//!
//! Each property is a [`ParamSpec`] (named integer fields with generation
//! ranges that double as shrinking floors) plus an oracle over the drawn
//! [`ParamCase`]. The root integration test `tests/properties.rs` runs
//! every family through [`crate::runner::Runner`] at its full legacy
//! case count, and the original master seeds live on as
//! seed-pin corpus entries (`legacy_seed`/`legacy_cases`), so the exact
//! input families the repo has always tested stay tested — now with
//! minimization when one fails.

use tsn_builder::latency_bounds;
use tsn_resource::{AllocationPolicy, ResourceConfig};
use tsn_sim::{hist_bucket, LatencyStats};
use tsn_switch::gate_ctrl::{GateControlList, GateEntry};
use tsn_switch::ingress_filter::TokenBucketMeter;
use tsn_switch::table::CapTable;
use tsn_topology::{presets, Topology};
use tsn_types::{DataRate, MacAddr, QueueId, SimDuration, SimTime, SplitMix64, TsnResult};

use crate::corpus::CaseCodec;
use crate::gen::Range;
use crate::runner::Verdict;
use crate::shrink::{shrink_u64, Shrink};

/// A property's input shape: named `u64` fields with inclusive ranges.
/// The range's `lo` is also the field's shrinking floor.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// `(field name, generation range)` pairs.
    pub fields: &'static [(&'static str, Range)],
}

impl ParamSpec {
    /// Draws one case.
    #[must_use]
    pub fn generate(&self, rng: &mut SplitMix64) -> ParamCase {
        ParamCase {
            fields: self
                .fields
                .iter()
                .map(|&(name, range)| (name.to_owned(), range.draw(rng)))
                .collect(),
            floors: self.fields.iter().map(|&(_, range)| range.lo).collect(),
        }
    }
}

/// One drawn case: named integer values. `floors` parallels `fields`
/// during live runs; corpus-decoded cases (which are never shrunk) carry
/// zero floors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamCase {
    /// `(field name, value)` pairs, in spec order.
    pub fields: Vec<(String, u64)>,
    /// Per-field shrinking floors.
    pub floors: Vec<u64>,
}

impl ParamCase {
    /// Looks a field's value up by name.
    ///
    /// # Panics
    ///
    /// When the field does not exist — an oracle/spec mismatch, which is
    /// a bug in the harness itself.
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("property case has no field {name:?}"))
    }
}

impl Shrink for ParamCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for (i, &(_, value)) in self.fields.iter().enumerate() {
            let floor = self.floors.get(i).copied().unwrap_or(0);
            for smaller in shrink_u64(value, floor) {
                let mut candidate = self.clone();
                candidate.fields[i].1 = smaller;
                out.push(candidate);
            }
        }
        out
    }
}

impl CaseCodec for ParamCase {
    fn to_fields(&self) -> Vec<(String, String)> {
        self.fields
            .iter()
            .map(|(name, value)| (name.clone(), format!("0x{value:x}")))
            .collect()
    }

    fn from_fields(fields: &[(String, String)]) -> Result<Self, String> {
        let mut out = Vec::with_capacity(fields.len());
        for (name, _) in fields {
            out.push((name.clone(), crate::corpus::field_u64(fields, name)?));
        }
        let floors = vec![0; out.len()];
        Ok(ParamCase {
            fields: out,
            floors,
        })
    }
}

/// One ported property: spec, oracle, and the seed-pin provenance that
/// preserves the pre-runner test family.
#[derive(Debug, Clone, Copy)]
pub struct PortedProperty {
    /// Runner/corpus name.
    pub name: &'static str,
    /// The master seed `tests/properties.rs` historically used.
    pub legacy_seed: u64,
    /// The case count it historically ran.
    pub legacy_cases: u64,
    /// Input shape.
    pub spec: ParamSpec,
    /// The property itself.
    pub oracle: fn(&ParamCase) -> Verdict,
}

/// Every ported property.
pub const PROPERTIES: &[PortedProperty] = &[
    PortedProperty {
        name: "policy-ordering",
        legacy_seed: 0x01de,
        legacy_cases: 256,
        spec: CONFIG_SPEC,
        oracle: policy_ordering,
    },
    PortedProperty {
        name: "accounting-monotone",
        legacy_seed: 0x303,
        legacy_cases: 128,
        spec: ParamSpec {
            fields: &[
                ("uni", Range::new(1, 4095)),
                ("multi", Range::new(0, 1023)),
                ("class", Range::new(1, 4095)),
                ("meter", Range::new(1, 4095)),
                ("gate", Range::new(1, 63)),
                ("queues", Range::new(2, 15)),
                ("cbs", Range::new(0, 7)),
                ("depth", Range::new(1, 255)),
                ("buffers", Range::new(1, 511)),
                ("ports", Range::new(1, 7)),
                ("extra_depth", Range::new(1, 63)),
                ("extra_buffers", Range::new(1, 127)),
            ],
        },
        oracle: accounting_monotone,
    },
    PortedProperty {
        name: "latency-bounds",
        legacy_seed: 0x1a7e,
        legacy_cases: 256,
        spec: ParamSpec {
            fields: &[
                ("hop", Range::new(0, 63)),
                ("slot_us", Range::new(1, 9_999)),
            ],
        },
        oracle: latency_bounds_props,
    },
    PortedProperty {
        name: "mac-roundtrip",
        legacy_seed: 0xacac,
        legacy_cases: 256,
        spec: ParamSpec {
            fields: &[("raw", Range::new(0, (1 << 48) - 1))],
        },
        oracle: mac_roundtrip,
    },
    PortedProperty {
        name: "slot-arithmetic",
        legacy_seed: 0x5107a,
        legacy_cases: 512,
        spec: ParamSpec {
            fields: &[
                ("t_ns", Range::new(0, u64::MAX / 4)),
                ("slot_us", Range::new(1, 99_999)),
            ],
        },
        oracle: slot_arithmetic,
    },
    PortedProperty {
        name: "duration-lcm",
        legacy_seed: 0x1c,
        legacy_cases: 256,
        spec: ParamSpec {
            fields: &[
                ("a_us", Range::new(1, 99_999)),
                ("b_us", Range::new(1, 99_999)),
            ],
        },
        oracle: duration_lcm,
    },
    PortedProperty {
        name: "cap-table",
        legacy_seed: 0xcab1e,
        legacy_cases: 64,
        spec: ParamSpec {
            fields: &[
                ("cap", Range::new(0, 31)),
                ("ops", Range::new(0, 199)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: cap_table,
    },
    PortedProperty {
        name: "meter-rate",
        legacy_seed: 0xb0cce7,
        legacy_cases: 64,
        spec: ParamSpec {
            fields: &[
                ("rate_mbps", Range::new(1, 999)),
                ("burst", Range::new(64, 16_383)),
                ("frames", Range::new(1, 99)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: meter_rate,
    },
    PortedProperty {
        name: "gcl-periodic",
        legacy_seed: 0x9c1,
        legacy_cases: 256,
        spec: ParamSpec {
            fields: &[
                ("entries", Range::new(1, 7)),
                ("slot_us", Range::new(1, 999)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: gcl_periodic,
    },
    PortedProperty {
        name: "latency-merge",
        legacy_seed: 0x5ad5,
        legacy_cases: 128,
        spec: ParamSpec {
            fields: &[
                ("shards", Range::new(1, 6)),
                ("samples", Range::new(1, 64)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: latency_merge,
    },
    // The three properties below are new with the scale work (fat-tree /
    // multi-ring builders and the histogram quantile sketch), not ports:
    // their seeds are fresh picks, not legacy master seeds.
    PortedProperty {
        name: "fat-tree-shape",
        legacy_seed: 0xfa7,
        legacy_cases: 64,
        spec: ParamSpec {
            fields: &[
                ("half", Range::new(1, 4)),
                ("hpe_raw", Range::new(0, 7)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: fat_tree_shape,
    },
    PortedProperty {
        name: "multi-ring-shape",
        legacy_seed: 0x21465,
        legacy_cases: 64,
        spec: ParamSpec {
            fields: &[
                ("rings", Range::new(1, 6)),
                ("ring_size", Range::new(3, 10)),
                ("hpr_raw", Range::new(0, 15)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: multi_ring_shape,
    },
    PortedProperty {
        name: "quantile-rank-error",
        legacy_seed: 0x9a11,
        legacy_cases: 128,
        spec: ParamSpec {
            fields: &[
                ("samples", Range::new(1, 512)),
                ("max_ns", Range::new(2, 50_000_000)),
                ("q_permille", Range::new(1, 1000)),
                ("seed", Range::new(0, u64::MAX)),
            ],
        },
        oracle: quantile_rank_error,
    },
];

/// Looks a ported property up by name.
#[must_use]
pub fn property_by_name(name: &str) -> Option<&'static PortedProperty> {
    PROPERTIES.iter().find(|p| p.name == name)
}

const CONFIG_SPEC: ParamSpec = ParamSpec {
    fields: &[
        ("uni", Range::new(1, 4095)),
        ("multi", Range::new(0, 1023)),
        ("class", Range::new(1, 4095)),
        ("meter", Range::new(1, 4095)),
        ("gate", Range::new(1, 63)),
        ("queues", Range::new(2, 15)),
        ("cbs", Range::new(0, 7)),
        ("depth", Range::new(1, 255)),
        ("buffers", Range::new(1, 511)),
        ("ports", Range::new(1, 7)),
    ],
};

fn build_config(case: &ParamCase) -> TsnResult<ResourceConfig> {
    let cbs = case.value("cbs") as u32;
    let ports = case.value("ports") as u32;
    let queues = case.value("queues") as u32;
    let mut cfg = ResourceConfig::new();
    cfg.set_switch_tbl(case.value("uni") as u32, case.value("multi") as u32)?
        .set_class_tbl(case.value("class") as u32)?
        .set_meter_tbl(case.value("meter") as u32)?
        .set_gate_tbl(case.value("gate") as u32, queues, ports)?
        .set_cbs_tbl(cbs, cbs, ports)?
        .set_queues(case.value("depth") as u32, queues, ports)?
        .set_buffers(case.value("buffers") as u32, ports)?;
    Ok(cfg)
}

/// Exact-bits is a lower bound and BRAM36 an upper bound on the paper's
/// accounting, for every in-domain configuration.
fn policy_ordering(case: &ParamCase) -> Verdict {
    let cfg = match build_config(case) {
        Ok(c) => c,
        Err(e) => return Verdict::Fail(format!("in-domain config rejected: {e}")),
    };
    let exact = cfg.total_bits(AllocationPolicy::ExactBits);
    let paper = cfg.total_bits(AllocationPolicy::PaperAccounting);
    let coarse = cfg.total_bits(AllocationPolicy::Bram36);
    if exact > coarse {
        return Verdict::Fail(format!("exact {exact} > bram36 {coarse}"));
    }
    if exact > paper {
        return Verdict::Fail(format!("exact {exact} > paper {paper}"));
    }
    if paper == 0 {
        return Verdict::Fail("paper accounting collapsed to 0 bits".into());
    }
    Verdict::Pass
}

/// Growing any single resource never shrinks the total.
fn accounting_monotone(case: &ParamCase) -> Verdict {
    let cfg = match build_config(case) {
        Ok(c) => c,
        Err(e) => return Verdict::Fail(format!("in-domain config rejected: {e}")),
    };
    let extra_depth = case.value("extra_depth") as u32;
    let extra_buffers = case.value("extra_buffers") as u32;
    for policy in AllocationPolicy::ALL {
        let base = cfg.total_bits(policy);
        let mut deeper = cfg.clone();
        if let Err(e) = deeper.set_queues(
            cfg.queue_depth().saturating_add(extra_depth),
            cfg.queue_num(),
            cfg.port_num(),
        ) {
            return Verdict::Fail(format!("deepening queues rejected: {e}"));
        }
        if deeper.total_bits(policy) < base {
            return Verdict::Fail(format!(
                "{policy:?}: +{extra_depth} depth shrank total {base} -> {}",
                deeper.total_bits(policy)
            ));
        }
        let mut fatter = cfg.clone();
        if let Err(e) = fatter.set_buffers(
            cfg.buffer_num().saturating_add(extra_buffers),
            cfg.port_num(),
        ) {
            return Verdict::Fail(format!("growing buffers rejected: {e}"));
        }
        if fatter.total_bits(policy) < base {
            return Verdict::Fail(format!(
                "{policy:?}: +{extra_buffers} buffers shrank total {base} -> {}",
                fatter.total_bits(policy)
            ));
        }
    }
    Verdict::Pass
}

/// Eq. (1): ordered, monotone in hops, linear in the slot.
fn latency_bounds_props(case: &ParamCase) -> Verdict {
    let hop = case.value("hop");
    let slot = SimDuration::from_micros(case.value("slot_us"));
    let (lo, hi) = latency_bounds(hop, slot);
    if lo > hi {
        return Verdict::Fail(format!("bounds inverted: {lo} > {hi}"));
    }
    let width = slot * if hop == 0 { 1 } else { 2 };
    if hi - lo != width {
        return Verdict::Fail(format!("band width {} != {width}", hi - lo));
    }
    let (lo2, hi2) = latency_bounds(hop + 1, slot);
    if lo2 < lo || hi2 < hi {
        return Verdict::Fail("bounds not monotone in hop count".into());
    }
    let (_, hi_double) = latency_bounds(hop, slot * 2);
    if hi_double != hi * 2 {
        return Verdict::Fail(format!("doubling the slot: {hi_double} != 2×{hi}"));
    }
    Verdict::Pass
}

/// MAC addresses round-trip through integers and canonical text.
fn mac_roundtrip(case: &ParamCase) -> Verdict {
    let raw = case.value("raw");
    let mac = MacAddr::from_u64(raw);
    if mac.to_u64() != raw {
        return Verdict::Fail(format!("u64 roundtrip: 0x{raw:x} -> 0x{:x}", mac.to_u64()));
    }
    match mac.to_string().parse::<MacAddr>() {
        Ok(parsed) if parsed == mac => Verdict::Pass,
        Ok(parsed) => Verdict::Fail(format!("text roundtrip: {mac} -> {parsed}")),
        Err(e) => Verdict::Fail(format!("canonical text {mac:?} failed to parse: {e}")),
    }
}

/// `slot_index` is consistent with `next_slot_boundary` and `align_up`.
fn slot_arithmetic(case: &ParamCase) -> Verdict {
    let t = SimTime::from_nanos(case.value("t_ns"));
    let slot = SimDuration::from_micros(case.value("slot_us"));
    let boundary = t.next_slot_boundary(slot);
    if boundary <= t {
        return Verdict::Fail(format!("boundary {boundary} not after {t}"));
    }
    if boundary.slot_index(slot) != t.slot_index(slot) + 1 {
        return Verdict::Fail("boundary does not advance the slot index by 1".into());
    }
    let aligned = t.align_up(slot);
    if aligned < t || aligned - t >= slot {
        return Verdict::Fail(format!("align_up({t}) = {aligned} out of [t, t+slot)"));
    }
    if aligned.offset_in_slot(slot) != SimDuration::ZERO {
        return Verdict::Fail(format!("align_up({t}) = {aligned} not slot-aligned"));
    }
    Verdict::Pass
}

/// LCM of durations is divisible by both operands.
fn duration_lcm(case: &ParamCase) -> Verdict {
    let a = SimDuration::from_micros(case.value("a_us"));
    let b = SimDuration::from_micros(case.value("b_us"));
    let l = a.lcm(b);
    if !l.is_multiple_of(a) || !l.is_multiple_of(b) {
        return Verdict::Fail(format!("lcm({a}, {b}) = {l} not a common multiple"));
    }
    if l < a.max(b) {
        return Verdict::Fail(format!("lcm({a}, {b}) = {l} below max operand"));
    }
    Verdict::Pass
}

/// A capacity-limited table never exceeds its capacity under any
/// insert/remove sequence.
fn cap_table(case: &ParamCase) -> Verdict {
    let cap = case.value("cap") as usize;
    let ops = case.value("ops");
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    let mut table: CapTable<u16, u16> = CapTable::new("prop table", cap);
    for op in 0..ops {
        let key = rng.gen_range(64) as u16;
        if rng.next_u64() & 1 == 0 {
            let _ = table.insert(key, key);
        } else {
            table.remove(&key);
        }
        if table.occupancy() > cap {
            return Verdict::Fail(format!(
                "occupancy {} over capacity {cap} after op {op}",
                table.occupancy()
            ));
        }
    }
    Verdict::Pass
}

/// Token-bucket long-run throughput never exceeds `rate × time + burst`.
fn meter_rate(case: &ParamCase) -> Verdict {
    let rate = DataRate::mbps(case.value("rate_mbps"));
    let burst_bytes = case.value("burst") as u32;
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    let mut meter = match TokenBucketMeter::new(rate, burst_bytes) {
        Ok(m) => m,
        Err(e) => return Verdict::Fail(format!("in-domain meter rejected: {e}")),
    };
    let mut passed_bits = 0u64;
    let mut now_ns = 0u64;
    for _ in 0..case.value("frames") {
        let bytes = rng.gen_range_in(64, 1522) as u32;
        now_ns += rng.gen_range(1_000_000);
        if meter.police(SimTime::from_nanos(now_ns), bytes) {
            passed_bits += u64::from(bytes) * 8;
        }
    }
    let budget = u128::from(rate.bits_per_sec()) * u128::from(now_ns) / 1_000_000_000
        + u128::from(burst_bytes) * 8;
    if u128::from(passed_bits) > budget {
        return Verdict::Fail(format!("passed {passed_bits} bits > budget {budget}"));
    }
    Verdict::Pass
}

/// GCL state repeats with its cycle.
fn gcl_periodic(case: &ParamCase) -> Verdict {
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    let slot = SimDuration::from_micros(case.value("slot_us"));
    let entries: Vec<GateEntry> = (0..case.value("entries"))
        .map(|_| {
            let mask = rng.gen_range(256);
            let mut e = GateEntry::all_closed();
            for q in 0..8 {
                if mask & (1 << q) != 0 {
                    e = e.with_open(QueueId::new(q));
                }
            }
            e
        })
        .collect();
    let gcl = match GateControlList::new(entries, slot) {
        Ok(g) => g,
        Err(e) => return Verdict::Fail(format!("in-domain GCL rejected: {e}")),
    };
    let t = SimTime::from_nanos(rng.gen_range(1_000_000_000));
    let q = QueueId::new(rng.gen_range(8) as u8);
    if gcl.is_open(q, t) != gcl.is_open(q, t + gcl.cycle()) {
        return Verdict::Fail(format!("gate state at {t} differs one cycle later"));
    }
    Verdict::Pass
}

/// Sharded `LatencyStats::merge` matches the single-pass stream for any
/// shard assignment and any merge order, to tight f64 tolerance (count,
/// min and max exactly).
fn latency_merge(case: &ParamCase) -> Verdict {
    let shard_count = case.value("shards") as usize;
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    let samples: Vec<u64> = (0..case.value("samples"))
        .map(|_| rng.gen_range_in(1, 50_000_000))
        .collect();

    let mut whole = LatencyStats::new();
    for &ns in &samples {
        whole.record(SimDuration::from_nanos(ns));
    }
    let mut shards = vec![LatencyStats::new(); shard_count];
    for (i, &ns) in samples.iter().enumerate() {
        shards[i % shard_count].record(SimDuration::from_nanos(ns));
    }
    // Merge in a seed-derived order so the property covers arbitrary
    // shard orders, not just 0..n.
    let mut order: Vec<usize> = (0..shard_count).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
    let mut merged = LatencyStats::new();
    for &i in &order {
        merged.merge(&shards[i]);
    }

    if merged.count() != whole.count() {
        return Verdict::Fail(format!(
            "count {} != single-pass {}",
            merged.count(),
            whole.count()
        ));
    }
    if merged.min() != whole.min() || merged.max() != whole.max() {
        return Verdict::Fail("min/max differ from single-pass".into());
    }
    let tol = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    if !tol(merged.mean_ns(), whole.mean_ns()) {
        return Verdict::Fail(format!(
            "mean {} != single-pass {} (order {order:?})",
            merged.mean_ns(),
            whole.mean_ns()
        ));
    }
    if !tol(merged.std_ns(), whole.std_ns()) {
        return Verdict::Fail(format!(
            "std {} != single-pass {} (order {order:?})",
            merged.std_ns(),
            whole.std_ns()
        ));
    }
    Verdict::Pass
}

/// Shared topology checks for the builder-shape properties: a sampled
/// host pair routes identically through the per-call BFS and a
/// per-talker [`tsn_topology::RouteTree`] with at most `max_switch_hops`
/// switches on the path, and every host hangs off a switch.
fn topology_shape_checks(
    topology: &Topology,
    max_switch_hops: usize,
    rng: &mut SplitMix64,
) -> Verdict {
    let hosts = topology.hosts();
    if hosts.len() >= 2 {
        let src = hosts[rng.gen_range(hosts.len() as u64) as usize];
        let mut dst = src;
        while dst == src {
            dst = hosts[rng.gen_range(hosts.len() as u64) as usize];
        }
        let direct = match topology.route(src, dst) {
            Ok(r) => r,
            Err(e) => return Verdict::Fail(format!("no route {src} -> {dst}: {e}")),
        };
        if direct.switch_hops() < 1 || direct.switch_hops() > max_switch_hops {
            return Verdict::Fail(format!(
                "route {src} -> {dst} crosses {} switches, outside [1, {max_switch_hops}]",
                direct.switch_hops()
            ));
        }
        match topology
            .routes_from(src)
            .and_then(|tree| tree.route(topology, dst))
        {
            Ok(tree) if tree.switch_hops() == direct.switch_hops() => {}
            Ok(tree) => {
                return Verdict::Fail(format!(
                    "route tree crosses {} switches, direct BFS {}",
                    tree.switch_hops(),
                    direct.switch_hops()
                ));
            }
            Err(e) => return Verdict::Fail(format!("route tree {src} -> {dst}: {e}")),
        }
    }

    for &host in hosts {
        if topology.switch_of_host(host).is_none() {
            return Verdict::Fail(format!("host {host} has no switch"));
        }
    }
    Verdict::Pass
}

/// The fat-tree builder produces the Clos arithmetic — `(k/2)²` cores,
/// `k` pods of `k` switches, `hosts_per_edge` hosts per edge switch and
/// the matching link count — with every host pair at most 5 switch hops
/// apart (edge-agg-core-agg-edge).
fn fat_tree_shape(case: &ParamCase) -> Verdict {
    let half = case.value("half") as usize;
    let k = 2 * half;
    let hpe = 1 + (case.value("hpe_raw") as usize) % half;
    let topology = match presets::fat_tree_with_hosts(k, hpe) {
        Ok(t) => t,
        Err(e) => return Verdict::Fail(format!("in-domain fat-tree rejected: {e}")),
    };
    let switches = topology.switches().len();
    if switches != half * half + 2 * k * half {
        return Verdict::Fail(format!(
            "k={k}: {switches} switches != (k/2)² cores + k pods × k"
        ));
    }
    let hosts = topology.hosts().len();
    if hosts != hpe * k * half {
        return Verdict::Fail(format!(
            "k={k}, hosts_per_edge={hpe}: {hosts} hosts != hpe × k²/2"
        ));
    }
    let links = topology.links().len();
    if links != hosts + 4 * half * half * half {
        return Verdict::Fail(format!(
            "k={k}: {links} links != {hosts} host links + k³/2 fabric links"
        ));
    }
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    topology_shape_checks(&topology, 5, &mut rng)
}

/// The multi-ring builder produces `rings × ring_size` switches,
/// `rings × hosts_per_ring` hosts, cycle-plus-backbone links, and routes
/// bounded by two half-ring walks plus half the backbone.
fn multi_ring_shape(case: &ParamCase) -> Verdict {
    let rings = case.value("rings") as usize;
    let ring_size = case.value("ring_size") as usize;
    let hpr = 1 + (case.value("hpr_raw") as usize) % ring_size;
    let topology = match presets::multi_ring(rings, ring_size, hpr) {
        Ok(t) => t,
        Err(e) => return Verdict::Fail(format!("in-domain multi-ring rejected: {e}")),
    };
    let switches = topology.switches().len();
    if switches != rings * ring_size {
        return Verdict::Fail(format!("{switches} switches != rings × ring_size"));
    }
    let hosts = topology.hosts().len();
    if hosts != rings * hpr {
        return Verdict::Fail(format!("{hosts} hosts != rings × hosts_per_ring"));
    }
    let backbone = match rings {
        1 => 0,
        2 => 1,
        n => n,
    };
    let links = topology.links().len();
    if links != hosts + rings * ring_size + backbone {
        return Verdict::Fail(format!(
            "{links} links != {hosts} host + {} cell + {backbone} backbone",
            rings * ring_size
        ));
    }
    // Worst case: half a ring to the gateway, half the backbone ring,
    // half a ring to the destination switch.
    let max_hops = 2 * (ring_size / 2) + rings / 2 + 1;
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    topology_shape_checks(&topology, max_hops, &mut rng)
}

/// The log2 histogram sketch lands every quantile in the same bucket as
/// the exact rank-`⌈q·n⌉` order statistic (≤ 1 bucket of rank error),
/// clamped inside the observed `[min, max]`, with monotone tails.
fn quantile_rank_error(case: &ParamCase) -> Verdict {
    let n = case.value("samples");
    let max_ns = case.value("max_ns");
    let mut rng = SplitMix64::seed_from_u64(case.value("seed"));
    let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range_in(1, max_ns)).collect();
    let mut stats = LatencyStats::new();
    for &ns in &samples {
        stats.record(SimDuration::from_nanos(ns));
    }
    samples.sort_unstable();

    let q = case.value("q_permille") as f64 / 1000.0;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let exact = samples[(rank - 1) as usize];
    let Some(est) = stats.quantile(q) else {
        return Verdict::Fail("non-empty stats returned no quantile".into());
    };
    let est = est.as_nanos();
    if est < samples[0] || est > samples[n as usize - 1] {
        return Verdict::Fail(format!(
            "q={q}: estimate {est} outside the observed [{}, {}]",
            samples[0],
            samples[n as usize - 1]
        ));
    }
    if hist_bucket(est).abs_diff(hist_bucket(exact)) > 1 {
        return Verdict::Fail(format!(
            "q={q}: estimate {est} (bucket {}) vs exact rank-{rank} sample {exact} (bucket {})",
            hist_bucket(est),
            hist_bucket(exact)
        ));
    }
    let (p50, p99, p999) = (stats.p50(), stats.p99(), stats.p999());
    if p50 > p99 || p99 > p999 {
        return Verdict::Fail(format!("tails not monotone: {p50:?} {p99:?} {p999:?}"));
    }
    Verdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_cases_round_trip_and_shrink_within_floors() {
        let mut rng = SplitMix64::seed_from_u64(1);
        for prop in PROPERTIES {
            let case = prop.spec.generate(&mut rng);
            let back = ParamCase::from_fields(&case.to_fields()).expect("decodes");
            assert_eq!(back.fields, case.fields, "{}", prop.name);
            for candidate in case.shrink_candidates() {
                for (i, &(_, v)) in candidate.fields.iter().enumerate() {
                    assert!(v >= case.floors[i], "{}: shrank below floor", prop.name);
                }
            }
        }
    }

    #[test]
    fn property_lookup_finds_all() {
        for prop in PROPERTIES {
            assert!(property_by_name(prop.name).is_some());
        }
        assert!(property_by_name("nope").is_none());
    }
}
