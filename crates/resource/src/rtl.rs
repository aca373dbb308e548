//! The emitted-RTL memory-map contract.
//!
//! `tsn-hdl` turns a [`ResourceConfig`] into Verilog; this module is the
//! *independent* prediction of what that Verilog contains — every memory
//! instance (hierarchical path, entry count, width) and every register
//! bit — written purely in terms of the config, with no HDL types in
//! sight. `tsn_hdl::cost` elaborates the parsed Verilog and must agree
//! with these functions bit-exactly (the `hdl-cost-agreement` oracle in
//! `tsn-verify`); the tests below tie the same numbers back to the
//! Table III cost queries, closing config → RTL → cost into one loop.
//!
//! Deliberate deltas from the paper's accounting, encoded here so both
//! sides agree *exactly* rather than approximately:
//!
//! * the switch table is split into two physical RAMs (unicast and
//!   multicast), each clamped to at least one entry so the RTL always
//!   elaborates — the paper costs the combined entry count;
//! * the egress scheduler adds a per-queue CBS map RAM (`queue_num`
//!   entries, not `cbs_map_size`) and a 32-bit credit array per shaper;
//! * packet buffers live off-chip of the generated modules and have no
//!   RTL counterpart.
//!
//! All widths in [`crate::config::EntryWidths`] are assumed ≥ 1: a
//! zero-width field would emit a degenerate `[0-1:0]` range that Verilog
//! reads as two bits, so the generator never ships one.

use crate::bram::{AllocationPolicy, BRAM36_BITS};
use crate::config::ResourceConfig;

/// One predicted memory instance of the emitted design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmittedMemory {
    /// Hierarchical path below `tsn_switch_top`, matching the generated
    /// instance names (e.g. `u_gate_ctrl0.u_queue3.mem`).
    pub path: String,
    /// Module that declares the memory.
    pub module: &'static str,
    /// Declared memory name.
    pub memory: &'static str,
    /// Entry count (depth).
    pub entries: u64,
    /// Entry width in bits.
    pub width_bits: u64,
}

impl EmittedMemory {
    /// `(entries, width)`, what [`table_bits`] and [`blocks`] fold.
    #[must_use]
    pub fn shape(&self) -> (u64, u64) {
        (self.entries, self.width_bits)
    }
}

fn clog2(value: u32) -> u32 {
    32 - value.max(1).next_power_of_two().leading_zeros() - 1
}

fn addr_width(depth: u32) -> u32 {
    clog2(depth).max(1)
}

/// Every memory instance the generated design elaborates for `cfg`, in
/// hierarchy order.
#[must_use]
pub fn emitted_memories(cfg: &ResourceConfig) -> Vec<EmittedMemory> {
    let w = cfg.widths();
    let sw = u64::from(w.switch_tbl_bits);
    let ports = cfg.port_num().max(1);
    let queues = cfg.queue_num().max(1);
    let cbs = u64::from(cfg.cbs_size().max(1));
    let mut mems = vec![
        EmittedMemory {
            path: "u_packet_switch.u_unicast_tbl.mem".to_owned(),
            module: "dpram",
            memory: "mem",
            entries: u64::from(cfg.unicast_size().max(1)),
            width_bits: sw,
        },
        EmittedMemory {
            path: "u_packet_switch.u_multicast_tbl.mem".to_owned(),
            module: "dpram",
            memory: "mem",
            entries: u64::from(cfg.multicast_size().max(1)),
            width_bits: sw,
        },
        EmittedMemory {
            path: "u_ingress_filter.u_class_tbl.mem".to_owned(),
            module: "dpram",
            memory: "mem",
            entries: u64::from(cfg.class_size().max(1)),
            width_bits: u64::from(w.class_tbl_bits),
        },
        EmittedMemory {
            path: "u_ingress_filter.meter_tbl".to_owned(),
            module: "ingress_filter",
            memory: "meter_tbl",
            entries: u64::from(cfg.meter_size().max(1)),
            width_bits: u64::from(w.meter_tbl_bits),
        },
    ];
    for p in 0..ports {
        for gcl in ["in_gcl", "out_gcl"] {
            mems.push(EmittedMemory {
                path: format!("u_gate_ctrl{p}.{gcl}"),
                module: "gate_ctrl",
                memory: if gcl == "in_gcl" { "in_gcl" } else { "out_gcl" },
                entries: u64::from(cfg.gate_size().max(1)),
                width_bits: u64::from(w.gate_tbl_bits),
            });
        }
        for q in 0..queues {
            mems.push(EmittedMemory {
                path: format!("u_gate_ctrl{p}.u_queue{q}.mem"),
                module: "meta_fifo",
                memory: "mem",
                entries: u64::from(cfg.queue_depth().max(1)),
                width_bits: u64::from(w.queue_meta_bits),
            });
        }
        mems.push(EmittedMemory {
            path: format!("u_egress_sched{p}.cbs_map_tbl"),
            module: "egress_sched",
            memory: "cbs_map_tbl",
            entries: u64::from(queues),
            width_bits: u64::from(w.cbs_map_bits),
        });
        mems.push(EmittedMemory {
            path: format!("u_egress_sched{p}.cbs_tbl"),
            module: "egress_sched",
            memory: "cbs_tbl",
            entries: cbs,
            width_bits: u64::from(w.cbs_tbl_bits),
        });
        mems.push(EmittedMemory {
            path: format!("u_egress_sched{p}.credit"),
            module: "egress_sched",
            memory: "credit",
            entries: cbs,
            width_bits: 32,
        });
    }
    mems
}

/// Total table bits of `(entries, width)` memories under `policy`, each
/// costed independently, as the paper's accounting does.
#[must_use]
pub fn table_bits(shapes: impl IntoIterator<Item = (u64, u64)>, policy: AllocationPolicy) -> u64 {
    shapes.into_iter().fold(0u64, |acc, (entries, width)| {
        acc.saturating_add(policy.table_cost_bits(entries, width))
    })
}

/// Blocks of `block_bits` the `(entries, width)` memories need, each
/// rounded up independently.
#[must_use]
pub fn blocks(shapes: impl IntoIterator<Item = (u64, u64)>, block_bits: u64) -> u64 {
    shapes.into_iter().fold(0u64, |acc, (entries, width)| {
        acc.saturating_add(entries.saturating_mul(width).div_ceil(block_bits))
    })
}

/// 36 Kb BRAM blocks the emitted design needs, each memory rounded up
/// independently.
#[must_use]
pub fn emitted_bram36_blocks(cfg: &ResourceConfig) -> u64 {
    blocks(
        emitted_memories(cfg).iter().map(EmittedMemory::shape),
        BRAM36_BITS,
    )
}

/// Register bits of the emitted design (plain `reg`s plus `output reg`
/// ports, testbench excluded), mirroring the templates:
///
/// * `time_sync`: 3×64-bit time/offset registers + 32-bit rate = 224;
/// * `packet_switch`: `hit` (1) + `out_port` (4), plus the two table
///   RAMs' registered read ports (`switch_tbl_bits` each);
/// * `ingress_filter`: `accept` (1) + `queue_id` (3) + `tokens` (32),
///   plus the class RAM's registered read port (`class_tbl_bits`);
/// * per port: `grant_onehot` (`queue_num`) in the scheduler, and per
///   queue a FIFO with a `queue_meta_bits` output register and two
///   `addr_width(queue_depth)+1`-bit pointers.
#[must_use]
pub fn emitted_register_bits(cfg: &ResourceConfig) -> u64 {
    let w = cfg.widths();
    let ports = u64::from(cfg.port_num().max(1));
    let queues = u64::from(cfg.queue_num().max(1));
    let fifo_ptr = u64::from(addr_width(cfg.queue_depth().max(1))) + 1;
    let per_fifo = u64::from(w.queue_meta_bits) + 2 * fifo_ptr;
    let time_sync = 64 + 64 + 64 + 32;
    let packet_switch = 1 + 4 + 2 * u64::from(w.switch_tbl_bits);
    let ingress_filter = 1 + 3 + 32 + u64::from(w.class_tbl_bits);
    let per_port = queues + queues.saturating_mul(per_fifo);
    time_sync + packet_switch + ingress_filter + ports.saturating_mul(per_port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bram::{BRAM18_BITS, KB_BITS};

    fn shapes(cfg: &ResourceConfig) -> impl Iterator<Item = (u64, u64)> {
        emitted_memories(cfg).into_iter().map(|m| m.shape())
    }

    #[test]
    fn gate_queue_class_meter_groups_match_the_cost_queries() {
        for cfg in [ResourceConfig::new(), crate::baseline::bcm53154()] {
            for policy in AllocationPolicy::ALL {
                let mems = emitted_memories(&cfg);
                let group = |pred: &dyn Fn(&EmittedMemory) -> bool| {
                    table_bits(
                        mems.iter().filter(|m| pred(m)).map(EmittedMemory::shape),
                        policy,
                    )
                };
                assert_eq!(
                    group(&|m| m.path.contains("u_class_tbl")),
                    cfg.class_tbl_bits(policy)
                );
                assert_eq!(
                    group(&|m| m.memory == "meter_tbl"),
                    cfg.meter_tbl_bits(policy)
                );
                assert_eq!(
                    group(&|m| m.memory == "in_gcl" || m.memory == "out_gcl"),
                    cfg.gate_tbl_bits(policy)
                );
                assert_eq!(
                    group(&|m| m.path.contains(".u_queue")),
                    cfg.queue_bits(policy)
                );
                // The split switch table can only cost more than the
                // paper's combined figure.
                assert!(
                    group(&|m| m.path.starts_with("u_packet_switch."))
                        >= cfg.switch_tbl_bits(policy)
                );
            }
        }
    }

    #[test]
    fn default_memory_map_has_the_expected_shape() {
        let cfg = ResourceConfig::new();
        let mems = emitted_memories(&cfg);
        // 4 shared + 1 port × (2 GCLs + 8 queues + 3 CBS-side arrays).
        assert_eq!(mems.len(), 4 + 2 + 8 + 3);
        let unicast = &mems[0];
        assert_eq!(unicast.path, "u_packet_switch.u_unicast_tbl.mem");
        assert_eq!(unicast.entries, 1024);
        assert_eq!(unicast.width_bits, 72);
        assert_eq!(unicast.shape(), (1024, 72));
        // The disabled multicast table still elaborates one entry.
        assert_eq!(mems[1].entries, 1);
    }

    #[test]
    fn commercial_baseline_scales_per_port_structures() {
        let cfg = crate::baseline::bcm53154();
        let mems = emitted_memories(&cfg);
        let gcls = mems.iter().filter(|m| m.memory == "in_gcl").count();
        assert_eq!(gcls as u32, cfg.port_num());
        let queues = mems.iter().filter(|m| m.path.contains(".u_queue")).count();
        assert_eq!(queues as u32, cfg.port_num() * cfg.queue_num());
    }

    #[test]
    fn block_counts_round_per_instance() {
        let cfg = ResourceConfig::new();
        let bits = |policy| table_bits(shapes(&cfg), policy);
        // Paper accounting is exactly BRAM18 blocks × 18 Kb for tables.
        assert_eq!(
            bits(AllocationPolicy::PaperAccounting),
            blocks(shapes(&cfg), BRAM18_BITS) * BRAM18_BITS
        );
        assert_eq!(
            bits(AllocationPolicy::Bram36),
            emitted_bram36_blocks(&cfg) * BRAM36_BITS
        );
        // Exact bits are bounded by both rounded figures.
        assert!(bits(AllocationPolicy::ExactBits) <= bits(AllocationPolicy::PaperAccounting));
    }

    #[test]
    fn register_bits_track_the_config() {
        let cfg = ResourceConfig::new();
        // 224 + (5 + 144) + (36 + 117) + 1×(8 + 8×(32 + 2×5)) = 870.
        assert_eq!(emitted_register_bits(&cfg), 870);
        let mut wide = ResourceConfig::new();
        wide.set_queues(1024, 8, 2).expect("valid");
        // Deeper queues widen the FIFO pointers; more ports add whole
        // per-port register sets.
        assert!(emitted_register_bits(&wide) > emitted_register_bits(&cfg));
    }

    #[test]
    fn table_costs_stay_in_paper_units() {
        let cfg = ResourceConfig::new();
        assert!(table_bits(shapes(&cfg), AllocationPolicy::PaperAccounting).is_multiple_of(KB_BITS));
    }
}
