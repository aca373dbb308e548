//! BRAM and register cost of the *parsed* HDL, closed against
//! `tsn_resource`.
//!
//! [`cost_of`] elaborates a parsed design from a root module exactly the
//! way a synthesis tool would — folding parameter defaults, applying
//! instance overrides, recursing into children — and collects every
//! memory (with resolved entry count and width) plus every register bit.
//! [`check_agreement`] then demands bit-exact agreement with
//! [`tsn_resource::rtl`]'s independent prediction of the emitted memory
//! map under every [`AllocationPolicy`]. Because `tsn_resource::rtl` is
//! itself tied back to the Table III cost queries, this closes the loop:
//! config → emitted Verilog → parsed cost → paper accounting.

use crate::ast::{Dir, Item, Module};
use crate::expr::{Env, Range};
use crate::lint::{default_env, instance_env, width_of};
use crate::text::Text;
use core::fmt;
use tsn_resource::bram::{AllocationPolicy, BRAM18_BITS, BRAM36_BITS};
use tsn_resource::{rtl, ResourceConfig};
use tsn_types::{TsnError, TsnResult};

/// One elaborated memory: a physical table/FIFO RAM instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryInstance {
    /// Hierarchical path below the root, e.g.
    /// `u_packet_switch.u_unicast_tbl.mem`.
    pub path: String,
    /// Module the memory is declared in.
    pub module: Text,
    /// Declared memory name.
    pub memory: Text,
    /// Resolved entry count (depth).
    pub entries: u64,
    /// Resolved entry width in bits.
    pub width_bits: u64,
}

/// The full cost picture of one elaborated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdlCost {
    /// Every memory instance below the root, in elaboration order.
    pub memories: Vec<MemoryInstance>,
    /// Total register bits (plain `reg`s plus `output reg` ports).
    pub register_bits: u64,
}

impl HdlCost {
    /// `(entries, width)` of every memory.
    fn shapes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.memories.iter().map(|m| (m.entries, m.width_bits))
    }

    /// 18 Kb BRAM primitives needed when each memory rounds up
    /// independently.
    #[must_use]
    pub fn bram18_blocks(&self) -> u64 {
        blocks(self.shapes(), BRAM18_BITS)
    }

    /// 36 Kb BRAM blocks needed when each memory rounds up independently.
    #[must_use]
    pub fn bram36_blocks(&self) -> u64 {
        blocks(self.shapes(), BRAM36_BITS)
    }
}

/// Total table bits of `(entries, width)` memories under `policy`, each
/// costed independently, as the paper's accounting does.
fn table_bits(shapes: impl Iterator<Item = (u64, u64)>, policy: AllocationPolicy) -> u64 {
    shapes.fold(0u64, |acc, (entries, width)| {
        acc.saturating_add(policy.table_cost_bits(entries, width))
    })
}

/// Blocks of `block_bits` the `(entries, width)` memories need, each
/// rounded up independently.
fn blocks(shapes: impl Iterator<Item = (u64, u64)>, block_bits: u64) -> u64 {
    shapes.fold(0u64, |acc, (entries, width)| {
        acc.saturating_add(entries.saturating_mul(width).div_ceil(block_bits))
    })
}

const MAX_DEPTH: usize = 32;

/// Elaborates `root` (usually `tsn_switch_top`) against the design in
/// `modules` and returns its memory map and register count.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] when an instantiated module is
/// missing from `modules`, a width/depth expression does not resolve to
/// a positive integer, or the hierarchy nests deeper than a generated
/// design ever does (a cycle).
pub fn cost_of(modules: &[Module], root: &str) -> TsnResult<HdlCost> {
    // The last module of each name counts, as in a map built in order.
    let Some(root_module) = modules.iter().rfind(|m| m.name == root) else {
        return Err(TsnError::InvalidArtifact(format!(
            "root module {root} not found in the parsed design"
        )));
    };
    let mut cost = HdlCost {
        memories: Vec::new(),
        register_bits: 0,
    };
    let env = default_env(root_module);
    elaborate(root_module, modules, &env, &mut String::new(), 0, &mut cost)?;
    Ok(cost)
}

/// What [`resolve`] resolves, named only in an error.
enum Subject<'a> {
    MemoryWidth(&'a str),
    MemoryDepth(&'a str),
    Register(&'a str),
}

impl fmt::Display for Subject<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::MemoryWidth(name) => write!(f, "width of memory {name}"),
            Subject::MemoryDepth(name) => write!(f, "depth of memory {name}"),
            Subject::Register(name) => write!(f, "width of register {name}"),
        }
    }
}

fn resolve(module: &str, what: Subject, range: Option<&Range>, env: &Env) -> TsnResult<u64> {
    let width = width_of(range, env)
        .map_err(|e| TsnError::InvalidArtifact(format!("{module}: cannot resolve {what}: {e}")))?;
    u64::try_from(width).map_err(|_| {
        TsnError::InvalidArtifact(format!("{module}: {what} resolved to negative {width}"))
    })
}

/// Elaborates `module` below the hierarchical `path` (empty at the
/// root, else ending in `.`), which it extends and restores for each
/// child.
fn elaborate(
    module: &Module,
    modules: &[Module],
    env: &Env,
    path: &mut String,
    depth: usize,
    cost: &mut HdlCost,
) -> TsnResult<()> {
    if depth > MAX_DEPTH {
        return Err(TsnError::InvalidArtifact(format!(
            "instantiation of {} nests deeper than {MAX_DEPTH} levels (cycle?)",
            module.name
        )));
    }
    for item in &module.items {
        if let Item::Memory { range, depth, name } = item {
            let width = Subject::MemoryWidth(name);
            let width_bits = resolve(&module.name, width, range.as_ref(), env)?;
            let entries = Subject::MemoryDepth(name);
            cost.memories.push(MemoryInstance {
                path: format!("{path}{name}"),
                module: module.name.clone(),
                memory: name.clone(),
                entries: resolve(&module.name, entries, Some(depth), env)?,
                width_bits,
            });
        }
    }
    let regs = module.items.iter().filter_map(|item| match item {
        Item::Reg { range, name } => Some((name, range)),
        _ => None,
    });
    let output_regs = module.ports.iter().filter(|p| p.dir == Dir::OutputReg);
    for (name, range) in regs.chain(output_regs.map(|p| (&p.name, &p.range))) {
        let bits = resolve(&module.name, Subject::Register(name), range.as_ref(), env)?;
        cost.register_bits = cost.register_bits.saturating_add(bits);
    }
    for inst in module.instances() {
        let Some(child) = modules.iter().rfind(|m| m.name == inst.module) else {
            return Err(TsnError::InvalidArtifact(format!(
                "{}: instance {} references unknown module {}",
                module.name, inst.name, inst.module
            )));
        };
        let child_env = instance_env(child, &inst.params, env);
        let parent = path.len();
        path.push_str(&inst.name);
        path.push('.');
        elaborate(child, modules, &child_env, path, depth + 1, cost)?;
        path.truncate(parent);
    }
    Ok(())
}

/// Demands bit-exact agreement between the parsed design's cost and
/// `tsn_resource`'s independent accounting of `cfg`.
///
/// Checked, in order:
/// 1. the full memory map — `(path, entries, width)` triples — against
///    [`rtl::emitted_memories`];
/// 2. total table bits under every [`AllocationPolicy`] against the
///    same sum over that map ([`rtl::emitted_table_bits`]);
/// 3. BRAM18/BRAM36 block counts against the `rtl` mirror;
/// 4. register bits against [`rtl::emitted_register_bits`];
/// 5. per-group sums (class, meter, gate, queue memories) against the
///    Table III cost queries on `cfg` itself — the same numbers
///    `total_bits` is built from.
///
/// # Errors
///
/// Returns a diagnostic describing the first disagreement.
pub fn check_agreement(cfg: &ResourceConfig, modules: &[Module]) -> Result<(), String> {
    let cost = cost_of(modules, "tsn_switch_top").map_err(|e| e.to_string())?;

    let mut parsed: Vec<(&str, u64, u64)> = cost
        .memories
        .iter()
        .map(|m| (m.path.as_str(), m.entries, m.width_bits))
        .collect();
    parsed.sort_unstable();
    let expected_mems = rtl::emitted_memories(cfg);
    let mut expected: Vec<(&str, u64, u64)> = expected_mems
        .iter()
        .map(|m| (m.path.as_str(), m.entries, m.width_bits))
        .collect();
    expected.sort_unstable();
    if parsed != expected {
        return Err(format!(
            "memory map disagrees:\n  parsed   {parsed:?}\n  expected {expected:?}"
        ));
    }

    // The `rtl` totals are these folds over `rtl::emitted_memories`,
    // which is built once above.
    let expected_shapes = || expected_mems.iter().map(|m| (m.entries, m.width_bits));
    for policy in AllocationPolicy::ALL {
        let got = table_bits(cost.shapes(), policy);
        let want = table_bits(expected_shapes(), policy);
        if got != want {
            return Err(format!(
                "table bits disagree under {policy}: parsed {got}, expected {want}"
            ));
        }
    }
    for (kind, bits) in [("BRAM18", BRAM18_BITS), ("BRAM36", BRAM36_BITS)] {
        let (got, want) = (blocks(cost.shapes(), bits), blocks(expected_shapes(), bits));
        if got != want {
            return Err(format!(
                "{kind} blocks disagree: parsed {got}, expected {want}"
            ));
        }
    }
    if cost.register_bits != rtl::emitted_register_bits(cfg) {
        return Err(format!(
            "register bits disagree: parsed {}, expected {}",
            cost.register_bits,
            rtl::emitted_register_bits(cfg)
        ));
    }

    // Group sums against the paper's own cost queries. These groups map
    // one-to-one onto Table III rows; the switch table (split into two
    // >=1-entry RAMs in RTL) and the CBS group (the RTL adds a per-queue
    // map and a credit array) are covered by the exact `rtl` mirror
    // above instead.
    for policy in AllocationPolicy::ALL {
        let group = |pred: &dyn Fn(&MemoryInstance) -> bool| {
            cost.memories
                .iter()
                .filter(|m| pred(m))
                .fold(0u64, |acc, m| {
                    acc.saturating_add(policy.table_cost_bits(m.entries, m.width_bits))
                })
        };
        let checks: [(&str, u64, u64); 4] = [
            (
                "class table",
                group(&|m| m.path.contains("u_class_tbl")),
                cfg.class_tbl_bits(policy),
            ),
            (
                "meter table",
                group(&|m| m.memory == "meter_tbl"),
                cfg.meter_tbl_bits(policy),
            ),
            (
                "gate tables",
                group(&|m| m.memory == "in_gcl" || m.memory == "out_gcl"),
                cfg.gate_tbl_bits(policy),
            ),
            (
                "queue FIFOs",
                group(&|m| m.path.contains(".u_queue")),
                cfg.queue_bits(policy),
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!(
                    "{what} bits disagree under {policy}: parsed {got}, expected {want}"
                ));
            }
        }
        // The RTL switch table can only cost more than the paper's
        // combined figure (two physical RAMs, each at least one entry).
        let switch_group = group(&|m| m.path.starts_with("u_packet_switch."));
        if switch_group < cfg.switch_tbl_bits(policy) {
            return Err(format!(
                "switch table bits {switch_group} fell below the paper figure {} under {policy}",
                cfg.switch_tbl_bits(policy)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_modules;
    use crate::templates::generate;

    fn parsed(cfg: &ResourceConfig) -> Vec<Module> {
        let bundle = generate(cfg).expect("generates");
        parse_modules(&bundle.concatenated()).expect("parses")
    }

    #[test]
    fn default_config_cost_agrees() {
        let cfg = ResourceConfig::new();
        check_agreement(&cfg, &parsed(&cfg)).expect("agrees");
    }

    #[test]
    fn commercial_baseline_cost_agrees() {
        let cfg = tsn_resource::baseline::bcm53154();
        check_agreement(&cfg, &parsed(&cfg)).expect("agrees");
    }

    #[test]
    fn varied_configs_agree() {
        let mut cfg = ResourceConfig::new();
        cfg.set_switch_tbl(0, 64)
            .expect("multicast-only is valid")
            .set_gate_tbl(154, 8, 3)
            .expect("valid")
            .set_cbs_tbl(0, 0, 3)
            .expect("shaping disabled")
            .set_queues(2, 8, 3)
            .expect("valid")
            .set_buffers(16, 3)
            .expect("valid");
        check_agreement(&cfg, &parsed(&cfg)).expect("agrees");
    }

    #[test]
    fn memory_paths_are_hierarchical() {
        let cfg = ResourceConfig::new();
        let cost = cost_of(&parsed(&cfg), "tsn_switch_top").expect("elaborates");
        let paths: Vec<&str> = cost.memories.iter().map(|m| m.path.as_str()).collect();
        assert!(paths.contains(&"u_packet_switch.u_unicast_tbl.mem"));
        assert!(paths.contains(&"u_ingress_filter.meter_tbl"));
        assert!(paths.contains(&"u_gate_ctrl0.u_queue7.mem"));
        assert!(paths.contains(&"u_egress_sched0.cbs_tbl"));
        let unicast = cost
            .memories
            .iter()
            .find(|m| m.path == "u_packet_switch.u_unicast_tbl.mem")
            .expect("unicast table present");
        assert_eq!(unicast.entries, 1024);
        assert_eq!(unicast.width_bits, 72);
        assert_eq!(unicast.module, "dpram");
        assert_eq!(unicast.memory, "mem");
    }

    #[test]
    fn testbench_is_outside_the_costed_hierarchy() {
        let cfg = ResourceConfig::new();
        let cost = cost_of(&parsed(&cfg), "tsn_switch_top").expect("elaborates");
        // The tb's own registers (cfg_data etc.) must not be counted.
        assert_eq!(cost.register_bits, rtl::emitted_register_bits(&cfg));
    }

    #[test]
    fn unknown_root_and_missing_children_error() {
        let cfg = ResourceConfig::new();
        let modules = parsed(&cfg);
        assert!(cost_of(&modules, "nonexistent").is_err());
        // Drop dpram: packet_switch's tables can no longer elaborate.
        let without: Vec<Module> = modules
            .iter()
            .filter(|m| m.name != "dpram")
            .cloned()
            .collect();
        assert!(cost_of(&without, "tsn_switch_top").is_err());
    }

    #[test]
    fn a_wrong_depth_edit_breaks_agreement() {
        let cfg = ResourceConfig::new();
        let bundle = generate(&cfg).expect("generates");
        let tampered = bundle
            .concatenated()
            .replace("parameter QUEUE_DEPTH = 12", "parameter QUEUE_DEPTH = 13");
        let modules = parse_modules(&tampered).expect("still parses");
        let err = check_agreement(&cfg, &modules).expect_err("must disagree");
        assert!(err.contains("memory map"), "unexpected diagnostic: {err}");
    }
}
