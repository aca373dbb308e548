//! The eight cross-layer differential oracles.
//!
//! Each oracle consumes a random [`ScenarioCase`] and cross-checks two
//! independent layers of the stack against each other, so neither layer's
//! own implementation is trusted as ground truth:
//!
//! 1. [`sim_vs_analytic`] — delivered CQF latencies vs. Eq. (1) bounds.
//! 2. [`qos_invariance`] — metamorphic: over-provisioning resources must
//!    not change a derived scenario's report at all.
//! 3. [`backend_equivalence`] — calendar-queue vs. binary-heap event
//!    cores on the same scenario.
//! 4. [`hdl_fixpoint`] — customize → emit IR → render → parse must give
//!    back the emitted IR, parameter-consistent with the resource config.
//! 5. [`fault_monotonicity`] — longer link outages never reduce the
//!    deadline-failure count.
//! 6. [`hdl_cost_agreement`] — BRAM/register cost elaborated from the
//!    *parsed* Verilog must agree bit-exactly with `tsn_resource`'s
//!    config-only accounting (and the emitted bundle must lint clean)
//!    for randomized `ResourceConfig`s.
//! 7. [`dse_optimality`] — every feasible answer of the design-space
//!    search must survive `tsn_dse::check_optimality`: its confirming
//!    simulation meets the QoS targets *and* stepping any monotone knob
//!    down one notch makes a bound or the simulation fail.
//! 8. [`reconfigure_equivalence`] — applying a random [`ConfigDelta`] to
//!    a resident [`NetworkTemplate`](tsn_sim::NetworkTemplate) must
//!    produce a report byte-identical (including the `Debug` rendering)
//!    to building the delta'd configuration from scratch — the
//!    incremental-reconfiguration path vs. the full-rebuild path.
//!
//! Verdict policy: anything that stops a case *before* a validated
//! configuration exists (preset/workload/planning infeasibility on random
//! inputs) is a [`Verdict::Discard`]; once derivation or planning
//! succeeded, every downstream error is a [`Verdict::Fail`].

use tsn_builder::cqf::latency_bounds;
use tsn_builder::derive::{derive_parameters, DeriveOptions, DerivedConfig};
use tsn_builder::requirements::AppRequirements;
use tsn_hdl::{Expr, Module};
use tsn_resource::config::EntryWidths;
use tsn_resource::ResourceConfig;
use tsn_sim::network::{ConfigDelta, Network};
use tsn_sim::{FaultConfig, LinkOutage};
use tsn_topology::{LinkId, Topology};
use tsn_types::FlowMap;
use tsn_types::{
    FlowId, FlowSet, SimDuration, SimTime, SplitMix64, TsFlowSpec, TsnError, TsnResult,
};

use crate::case::ScenarioCase;
use crate::runner::Verdict;

/// An oracle: a named check over [`ScenarioCase`]s.
pub type Oracle = fn(&ScenarioCase) -> Verdict;

/// Every oracle, with its corpus/CLI name.
pub const ORACLES: &[(&str, Oracle)] = &[
    ("sim-vs-analytic", sim_vs_analytic),
    ("qos-invariance", qos_invariance),
    ("backend-equivalence", backend_equivalence),
    ("hdl-fixpoint", hdl_fixpoint),
    ("fault-monotonicity", fault_monotonicity),
    ("hdl-cost-agreement", hdl_cost_agreement),
    ("dse-optimality", dse_optimality),
    ("reconfigure-equivalence", reconfigure_equivalence),
];

/// Looks an oracle up by name.
#[must_use]
pub fn oracle_by_name(name: &str) -> Option<Oracle> {
    ORACLES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, oracle)| *oracle)
}

/// Builds topology, flows and the full TSN-Builder derivation for a case.
/// Any error here happens before a validated configuration exists, so it
/// is a discard, never a failure.
pub fn prepare(case: &ScenarioCase) -> Result<(Topology, FlowSet, DerivedConfig), Verdict> {
    let discard = |stage: &str, e: TsnError| Verdict::Discard(format!("{stage}: {e}"));
    let topology = case.topology().map_err(|e| discard("preset", e))?;
    let flows = case
        .flow_set(&topology)
        .map_err(|e| discard("workload", e))?;
    let requirements =
        AppRequirements::new(topology.clone(), flows.clone(), SimDuration::from_nanos(50))
            .map_err(|e| discard("requirements", e))?;
    let derived = derive_parameters(&requirements, &DeriveOptions::paper())
        .map_err(|e| discard("derivation", e))?;
    Ok((topology, flows, derived))
}

/// Builds the derived configuration over the case's base config. Build
/// errors after a successful derivation are failures.
pub fn build_derived(
    case: &ScenarioCase,
    topology: &Topology,
    flows: &FlowSet,
    derived: &DerivedConfig,
) -> Result<Network, Verdict> {
    derived
        .template(topology.clone(), flows.clone(), case.base_config())
        .and_then(|template| template.instantiate())
        .map_err(|e| Verdict::Fail(format!("post-derive network build failed: {e}")))
}

/// Oracle 1 — simulator vs. analytic model: on a successfully derived
/// scenario, every delivered TS frame's latency lies inside Eq. (1)'s
/// `[(hop−1)·slot, (hop+1)·slot]`, no TS frame is lost, and a derived
/// (fault-free) configuration never loses frames to capacity.
pub fn sim_vs_analytic(case: &ScenarioCase) -> Verdict {
    let (topology, flows, derived) = match prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let report = match build_derived(case, &topology, &flows, &derived) {
        Ok(network) => network.run(),
        Err(v) => return v,
    };
    if report.ts_lost() != 0 {
        return Verdict::Fail(format!(
            "derived config lost {} TS frames (must be 0)",
            report.ts_lost()
        ));
    }
    if report.degradation.frames_lost_to_capacity != 0 {
        return Verdict::Fail(format!(
            "derived config reported {} capacity losses (must be 0)",
            report.degradation.frames_lost_to_capacity
        ));
    }
    for flow in flows.ts_flows() {
        let route = match topology.route(flow.src(), flow.dst()) {
            Ok(r) => r,
            Err(e) => {
                return Verdict::Fail(format!("{}: routing failed post-derive: {e}", flow.id()))
            }
        };
        let (lo, hi) = latency_bounds(route.switch_hops() as u64, derived.cqf.slot);
        let Some(record) = report.analyzer.flow(flow.id()) else {
            continue;
        };
        if record.latency.count() == 0 {
            continue;
        }
        let (min, max) = (record.latency.min(), record.latency.max());
        if min.is_some_and(|m| m < lo) {
            return Verdict::Fail(format!(
                "{}: latency {} under CQF lower bound {lo} (hops {}, slot {})",
                flow.id(),
                min.unwrap_or(SimDuration::ZERO),
                route.switch_hops(),
                derived.cqf.slot
            ));
        }
        if max.is_some_and(|m| m > hi) {
            return Verdict::Fail(format!(
                "{}: latency {} over CQF upper bound {hi} (hops {}, slot {})",
                flow.id(),
                max.unwrap_or(SimDuration::ZERO),
                route.switch_hops(),
                derived.cqf.slot
            ));
        }
    }
    Verdict::Pass
}

/// Which resource field each bit of `ScenarioCase::inflate_mask` inflates.
pub const INFLATABLE_FIELDS: &[&str] = &[
    "switch tables",
    "class table",
    "meter table",
    "queue depth",
    "buffer pool",
    "gate table",
];

/// Over-provisions `base` according to `mask` (one bit per entry of
/// [`INFLATABLE_FIELDS`]). Fields that govern *behaviour* (queue count,
/// port count, the GCL program) are deliberately not touched — only
/// capacities grow, so a correct simulator must not care.
///
/// # Errors
///
/// Propagates `ResourceConfig` validation (inflating a valid config must
/// never trip it; the metamorphic oracle treats an error as a failure).
pub fn inflate(base: &ResourceConfig, mask: u64) -> TsnResult<ResourceConfig> {
    let grow = |v: u32| v.saturating_mul(2).max(16);
    let mut unicast = base.unicast_size();
    let mut multicast = base.multicast_size();
    let mut class = base.class_size();
    let mut meter = base.meter_size();
    let mut depth = base.queue_depth();
    let mut buffers = base.buffer_num();
    let mut gate = base.gate_size();
    if mask & 0x01 != 0 {
        unicast = grow(unicast);
        multicast = multicast.saturating_add(16);
    }
    if mask & 0x02 != 0 {
        class = grow(class);
    }
    if mask & 0x04 != 0 {
        meter = grow(meter);
    }
    if mask & 0x08 != 0 {
        depth = depth.saturating_add(4);
    }
    if mask & 0x10 != 0 {
        buffers = grow(buffers);
    }
    if mask & 0x20 != 0 {
        gate = grow(gate);
    }
    let mut inflated = ResourceConfig::new();
    inflated
        .set_switch_tbl(unicast, multicast)?
        .set_class_tbl(class)?
        .set_meter_tbl(meter)?
        .set_gate_tbl(gate, base.queue_num(), base.port_num())?
        .set_cbs_tbl(base.cbs_map_size(), base.cbs_size(), base.port_num())?
        .set_queues(depth, base.queue_num(), base.port_num())?
        .set_buffers(buffers, base.port_num())?;
    Ok(inflated)
}

/// Oracle 2 — metamorphic QoS invariance: a derived configuration has
/// headroom everywhere (the derivation sized it to the workload), so
/// inflating pure *capacities* must leave the whole simulation report —
/// latency, jitter, loss, counters — byte-identical.
pub fn qos_invariance(case: &ScenarioCase) -> Verdict {
    let (topology, flows, derived) = match prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let inflated = match inflate(&derived.resources, case.inflate_mask) {
        Ok(r) => r,
        Err(e) => return Verdict::Fail(format!("inflating a derived config failed: {e}")),
    };
    if inflated == derived.resources {
        return Verdict::Pass;
    }
    let baseline = match build_derived(case, &topology, &flows, &derived) {
        Ok(network) => network.run(),
        Err(v) => return v,
    };
    let inflated = DerivedConfig {
        resources: inflated,
        ..derived
    };
    let grown = match build_derived(case, &topology, &flows, &inflated) {
        Ok(network) => network.run(),
        Err(v) => return v,
    };
    if baseline != grown {
        return Verdict::Fail(format!(
            "inflating capacities (mask 0x{:x}) changed the report: \
             baseline [{}] vs inflated [{}]",
            case.inflate_mask, baseline, grown
        ));
    }
    Verdict::Pass
}

/// Oracle 3 — event-core backend equivalence: the calendar queue and the
/// reference binary heap realize the same `(time, seq)` total order, so
/// the same scenario must produce byte-identical reports on both.
pub fn backend_equivalence(case: &ScenarioCase) -> Verdict {
    let (topology, flows, derived) = match prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let (calendar, heap) = match (
        build_derived(case, &topology, &flows, &derived),
        build_derived(case, &topology, &flows, &derived),
    ) {
        (Ok(calendar), Ok(heap)) => (calendar.run(), heap.with_reference_queue().run()),
        (Err(v), _) | (_, Err(v)) => return v,
    };
    if calendar != heap {
        return Verdict::Fail(format!(
            "event-queue backends disagree: calendar [{calendar}] vs heap [{heap}]"
        ));
    }
    Verdict::Pass
}

fn module<'a>(modules: &'a [Module], name: &str) -> Option<&'a Module> {
    modules.iter().find(|m| m.name == name)
}

fn expect_param(m: &Module, param: &str, want: u32) -> Result<(), String> {
    let got = m
        .params
        .iter()
        .find(|p| p.name == param)
        .map(|p| &p.value)
        .ok_or_else(|| format!("{}: parameter {param} missing", m.name))?;
    if *got != Expr::Num(want.into()) {
        return Err(format!(
            "{}: parameter {param} = {got}, expected {want}",
            m.name
        ));
    }
    Ok(())
}

/// The round trip [`hdl_fixpoint`] demands of every emitted module:
/// `text`, the module's rendering, must parse back to exactly `emitted`.
/// Returns the parsed module.
///
/// # Errors
///
/// A diagnostic naming the module and, where one item differs, the
/// emitted and parsed forms of that item.
pub fn hdl_round_trip(emitted: &Module, text: &str) -> Result<Module, String> {
    let name = &emitted.name;
    let mut parsed = tsn_hdl::parse_modules(text)
        .map_err(|e| format!("{name}: rendered text fails to parse: {e}"))?;
    if parsed.as_slice() == std::slice::from_ref(emitted) {
        return Ok(parsed.remove(0));
    }
    let item = parsed
        .first()
        .and_then(|got| emitted.items.iter().zip(&got.items).find(|(a, b)| a != b));
    let detail = match item {
        Some((want, got)) => format!(
            "emitted `{}` parsed back as `{}`",
            want.to_string().trim(),
            got.to_string().trim()
        ),
        None => "header, item count or module count differs".to_owned(),
    };
    Err(format!(
        "{name}: rendered text does not parse back to the emitted module: {detail}"
    ))
}

/// Oracle 4 — HDL fixpoint: customizing a derived configuration into
/// Verilog must produce modules whose rendered text passes the lexical
/// check ([`tsn_hdl::check_source`]) and parses back
/// ([`tsn_hdl::parse_modules`]) to exactly the emitted IR, with
/// parameters matching the resource config.
pub fn hdl_fixpoint(case: &ScenarioCase) -> Verdict {
    let (_, _, derived) = match prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let r = &derived.resources;
    let mut modules = Vec::new();
    for emitted in tsn_hdl::modules(r) {
        let text = emitted.render();
        if let Err(e) = tsn_hdl::check_source(&text) {
            return Verdict::Fail(format!(
                "{}.v: emitted source fails lint: {e}",
                emitted.name
            ));
        }
        match hdl_round_trip(&emitted, &text) {
            Ok(parsed) => modules.push(parsed),
            Err(e) => return Verdict::Fail(e),
        }
    }
    let checks: &[(&str, &str, u32)] = &[
        ("tsn_switch_top", "PORT_NUM", r.port_num().max(1)),
        ("tsn_switch_top", "QUEUE_NUM", r.queue_num()),
        ("gate_ctrl", "GCL_DEPTH", r.gate_size().max(1)),
        ("gate_ctrl", "QUEUE_NUM", r.queue_num().max(1)),
        ("gate_ctrl", "QUEUE_DEPTH", r.queue_depth().max(1)),
        ("egress_sched", "QUEUE_NUM", r.queue_num().max(1)),
        ("egress_sched", "CBS_DEPTH", r.cbs_size().max(1)),
        ("packet_switch", "UNICAST_DEPTH", r.unicast_size().max(1)),
        (
            "packet_switch",
            "MULTICAST_DEPTH",
            r.multicast_size().max(1),
        ),
        ("ingress_filter", "CLASS_DEPTH", r.class_size().max(1)),
        ("ingress_filter", "METER_DEPTH", r.meter_size().max(1)),
    ];
    for &(module_name, param, want) in checks {
        let Some(m) = module(&modules, module_name) else {
            return Verdict::Fail(format!("emitted bundle lacks module {module_name}"));
        };
        if let Err(e) = expect_param(m, param, want) {
            return Verdict::Fail(e);
        }
    }
    Verdict::Pass
}

/// Fault-intensity levels the monotonicity oracle sweeps: level `k`
/// keeps the first inter-switch link down for `k × 3 ms` starting at
/// 1 ms, so each level's outage window strictly contains the previous
/// one's.
pub const FAULT_LEVELS: u64 = 4;

fn fault_flows(topology: &Topology, count: u64) -> TsnResult<FlowSet> {
    // 1 ms period/deadline so every outage window overlaps many frames
    // (the IEC 60802 10 ms period would let short windows fall between
    // injections and make every level trivially zero).
    let hosts = topology.hosts();
    let mut flows = FlowSet::new();
    for id in 0..count {
        let src = hosts[id as usize % hosts.len()];
        let dst = hosts[(id as usize + 1) % hosts.len()];
        flows.push(
            TsFlowSpec::new(
                FlowId::new(id as u32),
                src,
                dst,
                SimDuration::from_millis(1),
                SimDuration::from_millis(1),
                64,
            )?
            .into(),
        );
    }
    Ok(flows)
}

/// Oracle 5 — fault monotonicity: with a deterministic outage timeline
/// (no stochastic wire faults, so every level is exactly reproducible),
/// widening the outage window never decreases the deadline-failure count
/// (TS deadline misses + TS frames lost).
pub fn fault_monotonicity(case: &ScenarioCase) -> Verdict {
    let discard = |stage: &str, e: TsnError| Verdict::Discard(format!("{stage}: {e}"));
    let topology = match case.topology() {
        Ok(t) => t,
        Err(e) => return discard("preset", e),
    };
    let flows = match fault_flows(&topology, case.flows) {
        Ok(f) => f,
        Err(e) => return discard("workload", e),
    };
    let requirements =
        match AppRequirements::new(topology.clone(), flows.clone(), SimDuration::from_nanos(50)) {
            Ok(r) => r,
            Err(e) => return discard("requirements", e),
        };
    let derived = match derive_parameters(&requirements, &DeriveOptions::paper()) {
        Ok(d) => d,
        Err(e) => return discard("derivation", e),
    };

    let mut failures = Vec::new();
    for level in 0..FAULT_LEVELS {
        let mut config = case.base_config();
        if level > 0 {
            config.faults = FaultConfig {
                seed: case.wl_seed,
                outages: vec![LinkOutage {
                    link: LinkId::new(0),
                    from: SimTime::from_millis(1),
                    until: SimTime::from_millis(1 + 3 * level),
                }],
                ..FaultConfig::none()
            };
        }
        let report = match derived
            .template(topology.clone(), flows.clone(), config)
            .and_then(|template| template.instantiate())
        {
            Ok(network) => network.run(),
            Err(e) => return Verdict::Fail(format!("level {level}: network build failed: {e}")),
        };
        failures.push(report.ts_deadline_misses() + report.ts_lost());
    }
    for level in 1..failures.len() {
        if failures[level] < failures[level - 1] {
            return Verdict::Fail(format!(
                "widening the outage reduced deadline failures: {failures:?} \
                 (level {level} < level {})",
                level - 1
            ));
        }
    }
    Verdict::Pass
}

/// How many randomized resource configurations [`hdl_cost_agreement`]
/// derives and checks per case.
pub const HDL_COST_CONFIGS_PER_CASE: usize = 8;

/// Draws a random but always-valid [`ResourceConfig`] spanning the whole
/// customization domain of Table II: table depths from empty to beyond
/// the commercial baseline, 1–4 ports, 1–12 queues, optional zero-CBS
/// ports and (one config in four) non-paper entry widths.
fn random_resource_config(rng: &mut SplitMix64) -> TsnResult<ResourceConfig> {
    let ports = rng.gen_range_in(1, 5) as u32;
    let queues = rng.gen_range_in(1, 13) as u32;
    let mut unicast = rng.gen_range(4097) as u32;
    let multicast = if rng.gen_range(2) == 0 {
        0
    } else {
        rng.gen_range_in(1, 1025) as u32
    };
    if unicast == 0 && multicast == 0 {
        unicast = 1; // the switch table rejects the fully-empty pair
    }
    let (cbs_map, cbs) = if rng.gen_range(4) == 0 {
        (0, 0) // ports without credit-based shaping
    } else {
        (
            rng.gen_range_in(1, 17) as u32,
            rng.gen_range_in(1, 17) as u32,
        )
    };
    let mut cfg = ResourceConfig::new();
    cfg.set_switch_tbl(unicast, multicast)?
        .set_class_tbl(rng.gen_range_in(1, 4097) as u32)?
        .set_meter_tbl(rng.gen_range_in(1, 2049) as u32)?
        .set_gate_tbl(rng.gen_range_in(1, 513) as u32, queues, ports)?
        .set_cbs_tbl(cbs_map, cbs, ports)?
        .set_queues(rng.gen_range_in(1, 65) as u32, queues, ports)?
        .set_buffers(rng.gen_range_in(1, 257) as u32, ports)?;
    if rng.gen_range(4) == 0 {
        let mut width = |hi: u64| rng.gen_range_in(1, hi) as u32;
        cfg.set_widths(EntryWidths {
            switch_tbl_bits: width(129),
            class_tbl_bits: width(129),
            meter_tbl_bits: width(129),
            gate_tbl_bits: width(129),
            cbs_map_bits: width(129),
            cbs_tbl_bits: width(129),
            queue_meta_bits: width(129),
        });
    }
    Ok(cfg)
}

/// Oracle 6 — HDL cost agreement: for [`HDL_COST_CONFIGS_PER_CASE`]
/// randomized resource configurations per case, the emitted Verilog must
/// parse, lint clean ([`tsn_hdl::lint_modules`]), and elaborate
/// ([`tsn_hdl::check_agreement`]) to the exact memory map, BRAM18/36
/// blocks, table bits under every [`tsn_resource::AllocationPolicy`] and
/// register count that `tsn_resource::rtl` predicts from the config
/// alone. Every drawn config is valid by construction, so this oracle
/// never discards.
pub fn hdl_cost_agreement(case: &ScenarioCase) -> Verdict {
    // Decorrelate from the oracles that feed `wl_seed` straight into the
    // workload generator so the two sweeps explore independent corners.
    let mut rng = SplitMix64::seed_from_u64(case.wl_seed ^ 0x4844_4c43_4f53_5421);
    for i in 0..HDL_COST_CONFIGS_PER_CASE {
        let cfg = match random_resource_config(&mut rng) {
            Ok(c) => c,
            Err(e) => {
                return Verdict::Fail(format!(
                    "config {i}: generator left its own valid domain: {e}"
                ))
            }
        };
        let bundle = match tsn_hdl::generate(&cfg) {
            Ok(b) => b,
            Err(e) => return Verdict::Fail(format!("config {i}: emission failed: {e}")),
        };
        let modules = match tsn_hdl::parse_modules(&bundle.concatenated()) {
            Ok(m) => m,
            Err(e) => {
                return Verdict::Fail(format!("config {i}: emitted bundle fails to parse: {e}"))
            }
        };
        let findings = tsn_hdl::lint_modules(&modules);
        if !findings.is_empty() {
            return Verdict::Fail(format!(
                "config {i}: emitted bundle has {} lint finding(s), first: {}",
                findings.len(),
                findings[0]
            ));
        }
        if let Err(e) = tsn_hdl::check_agreement(&cfg, &modules) {
            return Verdict::Fail(format!(
                "config {i}: parsed-HDL cost disagrees with tsn-resource: {e}"
            ));
        }
    }
    Verdict::Pass
}

/// Derives a [`tsn_dse::QosQuery`] from a case: the case's topology and
/// workload knobs, QoS targets drawn from a seed-decorrelated stream
/// (deadlines across the feasible-to-tight range, an occasional jitter
/// target, mostly-lossless loss budgets).
#[must_use]
pub fn dse_query(case: &ScenarioCase) -> tsn_dse::QosQuery {
    let mut rng = SplitMix64::seed_from_u64(case.wl_seed ^ 0x6473_655f_7170_7321);
    let deadline_ms = [2u64, 4, 8][rng.gen_range(3) as usize];
    let jitter = (rng.gen_range(4) == 0).then(|| SimDuration::from_micros(130));
    tsn_dse::QosQuery {
        label: "verify".into(),
        topology: tsn_dse::TopologySpec::Named {
            kind: case.topo.name().into(),
            switches: case.switches as usize,
            hosts: case.hosts as usize,
        },
        ts_count: case.flows as u32,
        frame_bytes: case.frame_bytes(),
        period: SimDuration::from_millis(2),
        seed: case.wl_seed,
        deadline: SimDuration::from_millis(deadline_ms),
        jitter,
        max_lost: 0,
        duration: SimDuration::from_millis(case.duration_ms),
    }
}

/// Oracle 7 — DSE optimality: run the design-space search on a
/// case-derived query; an infeasible verdict (random QoS targets may
/// simply be unmeetable) is a discard, but a feasible answer must pass
/// both directions of [`tsn_dse::check_optimality`] — the returned
/// config's simulation meets every target, and decrementing any single
/// monotone knob by one step makes an analytic bound or the confirming
/// simulation fail. The check runs on a fresh engine, so a stale-cache
/// answer cannot hide behind its own memo.
pub fn dse_optimality(case: &ScenarioCase) -> Verdict {
    let query = dse_query(case);
    let engine = tsn_dse::DseEngine::new();
    let result = engine.answer(&query);
    match result.status {
        tsn_dse::QueryStatus::Infeasible { stage, reason } => {
            Verdict::Discard(format!("{stage}: {reason}"))
        }
        tsn_dse::QueryStatus::Feasible(outcome) => {
            match tsn_dse::check_optimality(&engine, &query, &outcome.config) {
                Ok(()) => Verdict::Pass,
                Err(e) => Verdict::Fail(e),
            }
        }
    }
}

/// Draws the random [`ConfigDelta`] (and nothing else) for
/// [`reconfigure_equivalence`]: an independent coin per delta-able knob,
/// so the sweep covers the empty delta, single-knob deltas and compound
/// ones. The stream is decorrelated from the workload seed.
fn random_delta(case: &ScenarioCase, derived: &DerivedConfig) -> TsnResult<ConfigDelta> {
    let mut rng = SplitMix64::seed_from_u64(case.wl_seed ^ 0x7265_6366_6771_7521);
    let mut delta = ConfigDelta::default();
    if rng.gen_range(2) == 0 {
        delta.resources = Some(inflate(&derived.resources, rng.gen_range(64))?);
    }
    if rng.gen_range(4) == 0 {
        delta.slot = derived.cqf.slot.checked_mul(2);
    }
    if rng.gen_range(4) == 0 {
        delta.aggregate_switch_tbl = Some(!derived.aggregate_switch_tbl);
    }
    if rng.gen_range(4) == 0 {
        let shifted: FlowMap<SimDuration> = derived
            .itp
            .offsets
            .iter()
            .map(|(id, off)| (id, *off + SimDuration::from_micros(1)))
            .collect();
        delta.offsets = Some(shifted);
    }
    Ok(delta)
}

/// Oracle 8 — reconfigure equivalence: build a resident
/// [`NetworkTemplate`](tsn_sim::NetworkTemplate) from the derived
/// configuration, apply a random [`ConfigDelta`] (resources / slot /
/// aggregation / offsets, each with an independent coin), and cross-check against a from-scratch
/// [`Network::build`] under the identical effective config. The two
/// paths must agree *exactly*: byte-identical `Debug`-rendered reports
/// when both succeed, the same error when both reject the delta, and
/// never one succeeding where the other fails.
pub fn reconfigure_equivalence(case: &ScenarioCase) -> Verdict {
    let (topology, flows, derived) = match prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let template = match derived.template(topology.clone(), flows.clone(), case.base_config()) {
        Ok(t) => t,
        Err(e) => return Verdict::Fail(format!("post-derive template build failed: {e}")),
    };
    let delta = match random_delta(case, &derived) {
        Ok(d) => d,
        Err(e) => return Verdict::Fail(format!("inflating a derived config failed: {e}")),
    };

    let mut scratch_config = template.config().clone();
    if let Some(resources) = &delta.resources {
        scratch_config.resources = resources.clone();
    }
    if let Some(slot) = delta.slot {
        scratch_config.slot = slot;
    }
    if let Some(aggregate) = delta.aggregate_switch_tbl {
        scratch_config.aggregate_switch_tbl = aggregate;
    }
    let offsets = delta
        .offsets
        .clone()
        .unwrap_or_else(|| derived.itp.offsets.clone());

    let incremental = template.reconfigure(&delta).map(Network::run);
    let scratch = Network::build(topology, flows, &offsets, scratch_config).map(Network::run);
    match (incremental, scratch) {
        (Ok(inc), Ok(scr)) => {
            if inc != scr || format!("{inc:?}") != format!("{scr:?}") {
                Verdict::Fail(format!(
                    "incremental reconfigure diverged from a from-scratch build \
                     (delta {delta:?}): incremental [{inc}] vs scratch [{scr}]"
                ))
            } else {
                Verdict::Pass
            }
        }
        (Err(inc), Err(scr)) => {
            if inc.to_string() == scr.to_string() {
                Verdict::Pass
            } else {
                Verdict::Fail(format!(
                    "paths reject the delta with different errors: \
                     incremental [{inc}] vs scratch [{scr}]"
                ))
            }
        }
        (Ok(_), Err(e)) => Verdict::Fail(format!(
            "from-scratch build rejected the delta ({e}) but reconfigure accepted it"
        )),
        (Err(e), Ok(_)) => Verdict::Fail(format!(
            "reconfigure rejected the delta ({e}) but a from-scratch build accepted it"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_lookup_knows_every_oracle() {
        for (name, _) in ORACLES {
            assert!(oracle_by_name(name).is_some());
        }
        assert!(oracle_by_name("nope").is_none());
        assert_eq!(ORACLES.len(), 8);
    }

    /// Planted defect: a deliberately over-provisioned "optimum" must be
    /// rejected by the optimality check the `dse-optimality` oracle runs
    /// — proof the oracle can actually catch a wasteful search result.
    #[test]
    fn dse_optimality_catches_an_over_provisioned_answer() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let (query, outcome) = loop {
            let case = ScenarioCase::generate(&mut rng);
            let query = dse_query(&case);
            let engine = tsn_dse::DseEngine::new();
            if let tsn_dse::QueryStatus::Feasible(outcome) = engine.answer(&query).status {
                break (query, outcome);
            }
        };
        let engine = tsn_dse::DseEngine::new();
        let padded = tsn_dse::Knob::QueueDepth
            .with_value(
                &outcome.config,
                tsn_dse::Knob::QueueDepth.value(&outcome.config) + 4,
            )
            .expect("padding a valid config stays valid");
        let e = tsn_dse::check_optimality(&engine, &query, &padded)
            .expect_err("an over-provisioned config must be rejected");
        assert!(e.contains("not locally minimal"), "{e}");
        assert!(e.contains("queue_depth"), "{e}");
        // And the genuine optimum still passes on the same fresh engine.
        tsn_dse::check_optimality(&engine, &query, &outcome.config)
            .expect("the searched optimum is locally minimal");
    }

    #[test]
    fn random_resource_configs_span_the_domain() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut saw_multicast_zero = false;
        let mut saw_cbs_zero = false;
        let mut saw_custom_widths = false;
        for _ in 0..64 {
            let cfg = random_resource_config(&mut rng).expect("always valid");
            saw_multicast_zero |= cfg.multicast_size() == 0;
            saw_cbs_zero |= cfg.cbs_size() == 0;
            saw_custom_widths |= cfg.widths() != EntryWidths::PAPER;
            assert!((1..=4).contains(&cfg.port_num()));
            assert!((1..=12).contains(&cfg.queue_num()));
        }
        assert!(saw_multicast_zero, "multicast=0 corner never drawn");
        assert!(saw_cbs_zero, "cbs=0 corner never drawn");
        assert!(saw_custom_widths, "custom-width corner never drawn");
    }

    #[test]
    fn inflate_grows_only_the_masked_fields() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let case = loop {
            let c = ScenarioCase::generate(&mut rng);
            if prepare(&c).is_ok() {
                break c;
            }
        };
        let (_, _, derived) = prepare(&case).expect("derivable case");
        let base = &derived.resources;
        assert_eq!(&inflate(base, 0).expect("mask 0"), base);
        let all = inflate(base, 0x3f).expect("mask 0x3f");
        assert!(all.unicast_size() > base.unicast_size());
        assert!(all.class_size() > base.class_size());
        assert!(all.meter_size() > base.meter_size());
        assert!(all.queue_depth() > base.queue_depth());
        assert!(all.buffer_num() > base.buffer_num());
        assert!(all.gate_size() > base.gate_size());
        assert_eq!(
            all.queue_num(),
            base.queue_num(),
            "behavioural field untouched"
        );
        assert_eq!(
            all.port_num(),
            base.port_num(),
            "behavioural field untouched"
        );
    }

    #[test]
    fn every_oracle_passes_a_known_good_case() {
        let case = ScenarioCase {
            topo: tsn_topology::presets::Preset::Ring,
            switches: 3,
            hosts: 2,
            flows: 6,
            frame_idx: 0,
            wl_seed: 7,
            duration_ms: 6,
            inflate_mask: 0x3f,
        }
        .normalized();
        for (name, oracle) in ORACLES {
            assert_eq!(oracle(&case), Verdict::Pass, "oracle {name}");
        }
    }
}
