//! Verilog generation for the five TSN-Builder templates.
//!
//! This is the synthesis-stage output of Fig. 1: given a
//! [`ResourceConfig`], emit parameterized Verilog where every memory
//! (table, queue, buffer pool) is sized by the customization APIs. The
//! control-heavy datapaths (full parser, DMA glue — things FAST provides
//! on the real platform) are left as clearly-marked hook points, while
//! the resource-bearing structures (memories, FIFOs, GCL state machine,
//! priority encoder, token-bucket and credit arithmetic) are generated as
//! complete RTL.

use crate::ast::{Item, Module, Port};
use crate::validate::module_names;
use std::collections::HashSet;
use tsn_resource::ResourceConfig;
use tsn_types::{TsnError, TsnResult};

/// A generated set of Verilog files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdlBundle {
    files: Vec<(String, String)>,
}

impl HdlBundle {
    /// The generated `(file name, source)` pairs, top module last.
    #[must_use]
    pub fn files(&self) -> &[(String, String)] {
        &self.files
    }

    /// Looks up one file's source by name (e.g. `"gate_ctrl.v"`).
    #[must_use]
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, src)| src.as_str())
    }

    /// All files concatenated into a single source (what a one-file
    /// project hand-off would ship).
    #[must_use]
    pub fn concatenated(&self) -> String {
        self.files
            .iter()
            .map(|(_, src)| src.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Total source lines.
    #[must_use]
    pub fn total_lines(&self) -> usize {
        self.files.iter().map(|(_, s)| s.lines().count()).sum()
    }
}

fn clog2(value: u32) -> u32 {
    32 - value.max(1).next_power_of_two().leading_zeros() - 1
}

fn addr_width(depth: u32) -> u32 {
    clog2(depth).max(1)
}

/// Generates the complete per-switch HDL bundle for `config` and
/// validates every file.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] if any generated file fails
/// lexical validation (a generator bug), or propagates configuration
/// errors.
pub fn generate(config: &ResourceConfig) -> TsnResult<HdlBundle> {
    let modules = vec![
        ("dpram.v", dpram()),
        ("meta_fifo.v", meta_fifo()),
        ("time_sync.v", time_sync()),
        ("packet_switch.v", packet_switch(config)),
        ("ingress_filter.v", ingress_filter(config)),
        ("gate_ctrl.v", gate_ctrl(config)),
        ("egress_sched.v", egress_sched(config)),
        ("tsn_switch_top.v", top(config)),
        ("tsn_switch_tb.v", testbench(config)),
    ];
    let files: Vec<(String, String)> = modules
        .into_iter()
        .map(|(name, module)| (name.to_owned(), module.emit()))
        .collect();
    check_files(&files)?;
    Ok(HdlBundle { files })
}

/// Validates each file once, then checks, from the names those checks
/// collected, that no module is declared in two files. Once every file
/// passes on its own, a module declared twice is the only thing a check
/// of the concatenated bundle could still reject.
fn check_files(files: &[(String, String)]) -> TsnResult<()> {
    let mut declared = HashSet::new();
    for (name, src) in files {
        let modules =
            module_names(src).map_err(|e| TsnError::InvalidArtifact(format!("{name}: {e}")))?;
        for module in modules {
            if !declared.insert(module) {
                return Err(TsnError::InvalidArtifact(format!(
                    "{name}: duplicate module {module:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Generic simple-dual-port RAM, the BRAM-inferrable primitive every
/// table maps onto.
fn dpram() -> Module {
    let mut m = Module::new("dpram");
    m.param("WIDTH", 32)
        .param("DEPTH", 1024)
        .param("ADDR_WIDTH", 10)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "wr_en"))
        .port(Port::input("ADDR_WIDTH", "wr_addr"))
        .port(Port::input("WIDTH", "wr_data"))
        .port(Port::input("ADDR_WIDTH", "rd_addr"))
        .port(Port::output_reg("WIDTH", "rd_data"))
        .item(Item::Comment(
            "inferred block RAM; one 18Kb/36Kb primitive per instance".into(),
        ))
        .item(Item::Memory {
            width: "WIDTH".into(),
            depth: "DEPTH".into(),
            name: "mem".into(),
        })
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (wr_en) mem[wr_addr] <= wr_data;".into(),
                "rd_data <= mem[rd_addr];".into(),
            ],
        });
    m
}

/// Metadata FIFO: one per queue, depth = `queue_depth`.
fn meta_fifo() -> Module {
    let mut m = Module::new("meta_fifo");
    m.param("WIDTH", 32)
        .param("DEPTH", 12)
        .param("ADDR_WIDTH", 4)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("1", "push"))
        .port(Port::input("WIDTH", "din"))
        .port(Port::input("1", "pop"))
        .port(Port::output_reg("WIDTH", "dout"))
        .port(Port::output("1", "full"))
        .port(Port::output("1", "empty"))
        .item(Item::Memory {
            width: "WIDTH".into(),
            depth: "DEPTH".into(),
            name: "mem".into(),
        })
        .item(Item::Reg {
            width: "ADDR_WIDTH+1".into(),
            name: "wr_ptr".into(),
        })
        .item(Item::Reg {
            width: "ADDR_WIDTH+1".into(),
            name: "rd_ptr".into(),
        })
        .item(Item::Wire {
            width: "ADDR_WIDTH+1".into(),
            name: "level".into(),
        })
        .item(Item::Assign {
            lhs: "level".into(),
            rhs: "wr_ptr - rd_ptr".into(),
        })
        .item(Item::Assign {
            lhs: "full".into(),
            rhs: "level == DEPTH".into(),
        })
        .item(Item::Assign {
            lhs: "empty".into(),
            rhs: "level == 0".into(),
        })
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (!rst_n) begin".into(),
                "    wr_ptr <= 0;".into(),
                "    rd_ptr <= 0;".into(),
                "end else begin".into(),
                "    if (push && !full) begin".into(),
                "        mem[wr_ptr[ADDR_WIDTH-1:0]] <= din;".into(),
                "        wr_ptr <= wr_ptr + 1;".into(),
                "    end".into(),
                "    if (pop && !empty) begin".into(),
                "        dout <= mem[rd_ptr[ADDR_WIDTH-1:0]];".into(),
                "        rd_ptr <= rd_ptr + 1;".into(),
                "    end".into(),
                "end".into(),
            ],
        });
    m
}

/// gPTP correction datapath: offset + rate-ratio registers applied to the
/// free-running counter (the "clock correction" submodule of Fig. 5).
fn time_sync() -> Module {
    let mut m = Module::new("time_sync");
    m.param("TS_WIDTH", 64)
        .param("FRAC_WIDTH", 32)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("1", "corr_wr"))
        .port(Port::input("TS_WIDTH", "corr_offset"))
        .port(Port::input("FRAC_WIDTH", "corr_rate"))
        .port(Port::output_reg("TS_WIDTH", "ptp_time"))
        .item(Item::Comment(
            "collection of clock time: free-running counter".into(),
        ))
        .item(Item::Reg {
            width: "TS_WIDTH".into(),
            name: "raw_time".into(),
        })
        .item(Item::Reg {
            width: "TS_WIDTH".into(),
            name: "offset_reg".into(),
        })
        .item(Item::Reg {
            width: "FRAC_WIDTH".into(),
            name: "rate_reg".into(),
        })
        .item(Item::Comment(
            "calculation of correction time happens on the embedded CPU; the".into(),
        ))
        .item(Item::Comment(
            "result is written through corr_wr (clock correction submodule)".into(),
        ))
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (!rst_n) begin".into(),
                "    raw_time <= 0;".into(),
                "    offset_reg <= 0;".into(),
                "    rate_reg <= 0;".into(),
                "    ptp_time <= 0;".into(),
                "end else begin".into(),
                "    raw_time <= raw_time + 8; // 125 MHz -> 8 ns per cycle".into(),
                "    if (corr_wr) begin".into(),
                "        offset_reg <= corr_offset;".into(),
                "        rate_reg <= corr_rate;".into(),
                "    end".into(),
                "    ptp_time <= raw_time + offset_reg + ((raw_time * rate_reg) >> FRAC_WIDTH);"
                    .into(),
                "end".into(),
            ],
        });
    m
}

/// Packet Switch template: parser hook + unicast/multicast lookup.
fn packet_switch(config: &ResourceConfig) -> Module {
    let unicast = config.unicast_size().max(1);
    let multicast = config.multicast_size().max(1);
    let mut m = Module::new("packet_switch");
    m.param("UNICAST_DEPTH", unicast)
        .param("UNICAST_AW", addr_width(unicast))
        .param("MULTICAST_DEPTH", multicast)
        .param("MULTICAST_AW", addr_width(multicast))
        .param("ENTRY_WIDTH", config.widths().switch_tbl_bits)
        .param("KEY_WIDTH", 60) // 48-bit dst MAC + 12-bit VID
        .param("PORT_WIDTH", 4)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("1", "lookup_valid"))
        .port(Port::input("KEY_WIDTH", "lookup_key"))
        .port(Port::input("1", "is_multicast"))
        .port(Port::input("MULTICAST_AW", "mc_index"))
        .port(Port::output_reg("1", "hit"))
        .port(Port::output_reg("PORT_WIDTH", "out_port"))
        .port(Port::input("1", "cfg_wr"))
        .port(Port::input("UNICAST_AW", "cfg_addr"))
        .port(Port::input("ENTRY_WIDTH", "cfg_data"))
        .item(Item::Comment(
            "lookup submodule: hash-indexed unicast table (Dst MAC + VID)".into(),
        ))
        .item(Item::Wire {
            width: "UNICAST_AW".into(),
            name: "hash_index".into(),
        })
        .item(Item::Assign {
            lhs: "hash_index".into(),
            rhs: "lookup_key[UNICAST_AW-1:0] ^ lookup_key[2*UNICAST_AW-1:UNICAST_AW]".into(),
        })
        .item(Item::Wire {
            width: "ENTRY_WIDTH".into(),
            name: "unicast_entry".into(),
        })
        .item(Item::Instance {
            module: "dpram".into(),
            name: "u_unicast_tbl".into(),
            params: vec![
                ("WIDTH".into(), "ENTRY_WIDTH".into()),
                ("DEPTH".into(), "UNICAST_DEPTH".into()),
                ("ADDR_WIDTH".into(), "UNICAST_AW".into()),
            ],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("wr_en".into(), "cfg_wr".into()),
                ("wr_addr".into(), "cfg_addr".into()),
                ("wr_data".into(), "cfg_data".into()),
                ("rd_addr".into(), "hash_index".into()),
                ("rd_data".into(), "unicast_entry".into()),
            ],
        })
        .item(Item::Wire {
            width: "ENTRY_WIDTH".into(),
            name: "multicast_entry".into(),
        })
        .item(Item::Instance {
            module: "dpram".into(),
            name: "u_multicast_tbl".into(),
            params: vec![
                ("WIDTH".into(), "ENTRY_WIDTH".into()),
                ("DEPTH".into(), "MULTICAST_DEPTH".into()),
                ("ADDR_WIDTH".into(), "MULTICAST_AW".into()),
            ],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("wr_en".into(), "1'b0".into()),
                ("wr_addr".into(), "mc_index".into()),
                ("wr_data".into(), "multicast_entry".into()),
                ("rd_addr".into(), "mc_index".into()),
                ("rd_data".into(), "multicast_entry".into()),
            ],
        })
        .item(Item::Comment(
            "entry layout: [KEY_WIDTH-1:0] stored key, then the out-port".into(),
        ))
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (!rst_n) begin".into(),
                "    hit <= 1'b0;".into(),
                "    out_port <= 0;".into(),
                "end else if (lookup_valid) begin".into(),
                "    if (is_multicast) begin".into(),
                "        hit <= 1'b1;".into(),
                "        out_port <= multicast_entry[PORT_WIDTH-1:0];".into(),
                "    end else begin".into(),
                "        hit <= unicast_entry[KEY_WIDTH-1:0] == lookup_key;".into(),
                "        out_port <= unicast_entry[KEY_WIDTH+PORT_WIDTH-1:KEY_WIDTH];".into(),
                "    end".into(),
                "end".into(),
            ],
        });
    m
}

/// Ingress Filter template: classification table + meter table with the
/// token-bucket refill/charge arithmetic.
fn ingress_filter(config: &ResourceConfig) -> Module {
    let class = config.class_size().max(1);
    let meters = config.meter_size().max(1);
    let mut m = Module::new("ingress_filter");
    m.param("CLASS_DEPTH", class)
        .param("CLASS_AW", addr_width(class))
        .param("CLASS_WIDTH", config.widths().class_tbl_bits)
        .param("METER_DEPTH", meters)
        .param("METER_AW", addr_width(meters))
        .param("METER_WIDTH", config.widths().meter_tbl_bits)
        .param("QUEUE_WIDTH", 3)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("1", "classify_valid"))
        .port(Port::input("CLASS_AW", "class_index"))
        .port(Port::input("16", "frame_bytes"))
        .port(Port::output_reg("1", "accept"))
        .port(Port::output_reg("QUEUE_WIDTH", "queue_id"))
        .port(Port::input("1", "cfg_wr"))
        .port(Port::input("CLASS_AW", "cfg_addr"))
        .port(Port::input("CLASS_WIDTH", "cfg_data"))
        .item(Item::Comment(
            "classifier: (Src MAC, Dst MAC, VID, PRI) hashed upstream to class_index".into(),
        ))
        .item(Item::Wire {
            width: "CLASS_WIDTH".into(),
            name: "class_entry".into(),
        })
        .item(Item::Instance {
            module: "dpram".into(),
            name: "u_class_tbl".into(),
            params: vec![
                ("WIDTH".into(), "CLASS_WIDTH".into()),
                ("DEPTH".into(), "CLASS_DEPTH".into()),
                ("ADDR_WIDTH".into(), "CLASS_AW".into()),
            ],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("wr_en".into(), "cfg_wr".into()),
                ("wr_addr".into(), "cfg_addr".into()),
                ("wr_data".into(), "cfg_data".into()),
                ("rd_addr".into(), "class_index".into()),
                ("rd_data".into(), "class_entry".into()),
            ],
        })
        .item(Item::Comment(
            "meter table: entry = {tokens[31:0], rate[23:0], burst[11:0]}".into(),
        ))
        .item(Item::Memory {
            width: "METER_WIDTH".into(),
            depth: "METER_DEPTH".into(),
            name: "meter_tbl".into(),
        })
        .item(Item::Wire {
            width: "METER_AW".into(),
            name: "meter_id".into(),
        })
        .item(Item::Assign {
            lhs: "meter_id".into(),
            rhs: "class_entry[METER_AW-1:0]".into(),
        })
        .item(Item::Reg {
            width: "32".into(),
            name: "tokens".into(),
        })
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (!rst_n) begin".into(),
                "    accept <= 1'b0;".into(),
                "    queue_id <= 0;".into(),
                "    tokens <= 0;".into(),
                "end else if (classify_valid) begin".into(),
                "    // token-bucket police: refill then charge".into(),
                "    tokens = meter_tbl[meter_id][31:0] + meter_tbl[meter_id][55:32];".into(),
                "    if (tokens >= {16'd0, frame_bytes}) begin".into(),
                "        meter_tbl[meter_id][31:0] <= tokens - {16'd0, frame_bytes};".into(),
                "        accept <= 1'b1;".into(),
                "    end else begin".into(),
                "        meter_tbl[meter_id][31:0] <= tokens;".into(),
                "        accept <= 1'b0;".into(),
                "    end".into(),
                "    queue_id <= class_entry[METER_AW+QUEUE_WIDTH-1:METER_AW];".into(),
                "end".into(),
            ],
        });
    m
}

/// Gate Ctrl template: slot counter + In/Out GCL lookup + the per-queue
/// metadata FIFOs.
fn gate_ctrl(config: &ResourceConfig) -> Module {
    let gate = config.gate_size().max(1);
    let queues = config.queue_num().max(1);
    let depth = config.queue_depth().max(1);
    let mut m = Module::new("gate_ctrl");
    m.param("GCL_DEPTH", gate)
        .param("GCL_AW", addr_width(gate))
        .param("GATE_WIDTH", config.widths().gate_tbl_bits)
        .param("QUEUE_NUM", queues)
        .param("QUEUE_DEPTH", depth)
        .param("QUEUE_AW", addr_width(depth))
        .param("META_WIDTH", config.widths().queue_meta_bits)
        .param("SLOT_NS", 65_000)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("64", "ptp_time"))
        .port(Port::input("1", "enq_valid"))
        .port(Port::input("QUEUE_NUM", "enq_queue_onehot"))
        .port(Port::input("META_WIDTH", "enq_meta"))
        .port(Port::input("QUEUE_NUM", "deq_queue_onehot"))
        .port(Port::output("META_WIDTH", "deq_meta"))
        .port(Port::output("QUEUE_NUM", "in_gate_state"))
        .port(Port::output("QUEUE_NUM", "out_gate_state"))
        .port(Port::output("QUEUE_NUM", "queue_empty"))
        .port(Port::output("QUEUE_NUM", "queue_full"))
        .port(Port::input("1", "cfg_wr"))
        .port(Port::input("GCL_AW", "cfg_addr"))
        .port(Port::input("2*GATE_WIDTH", "cfg_data"))
        .item(Item::Comment(
            "update module: the current slot selects one In/Out GCL entry".into(),
        ))
        .item(Item::Memory {
            width: "GATE_WIDTH".into(),
            depth: "GCL_DEPTH".into(),
            name: "in_gcl".into(),
        })
        .item(Item::Memory {
            width: "GATE_WIDTH".into(),
            depth: "GCL_DEPTH".into(),
            name: "out_gcl".into(),
        })
        .item(Item::Wire {
            width: "64".into(),
            name: "slot_index".into(),
        })
        .item(Item::Assign {
            lhs: "slot_index".into(),
            rhs: "ptp_time / SLOT_NS".into(),
        })
        .item(Item::Wire {
            width: "GCL_AW".into(),
            name: "gcl_sel".into(),
        })
        .item(Item::Assign {
            lhs: "gcl_sel".into(),
            rhs: "slot_index % GCL_DEPTH".into(),
        })
        .item(Item::Assign {
            lhs: "in_gate_state".into(),
            rhs: "in_gcl[gcl_sel][QUEUE_NUM-1:0]".into(),
        })
        .item(Item::Assign {
            lhs: "out_gate_state".into(),
            rhs: "out_gcl[gcl_sel][QUEUE_NUM-1:0]".into(),
        })
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec![
                "if (cfg_wr) begin".into(),
                "    in_gcl[cfg_addr] <= cfg_data[GATE_WIDTH-1:0];".into(),
                "    out_gcl[cfg_addr] <= cfg_data[2*GATE_WIDTH-1:GATE_WIDTH];".into(),
                "end".into(),
            ],
        })
        .item(Item::Comment(
            "per-queue metadata FIFOs (one BRAM primitive each)".into(),
        ))
        .item(Item::Wire {
            width: "QUEUE_NUM*META_WIDTH".into(),
            name: "deq_meta_bus".into(),
        });
    for q in 0..queues {
        m.item(Item::Instance {
            module: "meta_fifo".into(),
            name: format!("u_queue{q}"),
            params: vec![
                ("WIDTH".into(), "META_WIDTH".into()),
                ("DEPTH".into(), "QUEUE_DEPTH".into()),
                ("ADDR_WIDTH".into(), "QUEUE_AW".into()),
            ],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("rst_n".into(), "rst_n".into()),
                (
                    "push".into(),
                    format!("enq_valid & enq_queue_onehot[{q}] & in_gate_state[{q}]"),
                ),
                ("din".into(), "enq_meta".into()),
                (
                    "pop".into(),
                    format!("deq_queue_onehot[{q}] & out_gate_state[{q}]"),
                ),
                (
                    "dout".into(),
                    format!("deq_meta_bus[{q}*META_WIDTH +: META_WIDTH]"),
                ),
                ("full".into(), format!("queue_full[{q}]")),
                ("empty".into(), format!("queue_empty[{q}]")),
            ],
        });
    }
    m.item(Item::Comment(
        "dequeue mux over the one-hot selected queue".into(),
    ))
    .item(Item::Assign {
        lhs: "deq_meta".into(),
        rhs: mux_expr(queues),
    });
    m
}

fn mux_expr(queues: u32) -> String {
    let mut expr = String::from("0");
    for q in 0..queues {
        expr = format!(
            "deq_queue_onehot[{q}] ? deq_meta_bus[{q}*META_WIDTH +: META_WIDTH] : ({expr})"
        );
    }
    expr
}

/// Egress Sched template: strict-priority encoder over gate-eligible
/// queues plus the CBS credit arithmetic.
fn egress_sched(config: &ResourceConfig) -> Module {
    let queues = config.queue_num().max(1);
    let cbs = config.cbs_size().max(1);
    let mut m = Module::new("egress_sched");
    m.param("QUEUE_NUM", queues)
        .param("CBS_DEPTH", cbs)
        .param("CBS_AW", addr_width(cbs))
        .param("CBS_WIDTH", config.widths().cbs_tbl_bits)
        .param("MAP_WIDTH", config.widths().cbs_map_bits)
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("QUEUE_NUM", "queue_ready"))
        .port(Port::input("QUEUE_NUM", "out_gate_state"))
        .port(Port::output_reg("QUEUE_NUM", "grant_onehot"))
        .port(Port::input("1", "cfg_wr"))
        .port(Port::input("CBS_AW", "cfg_addr"))
        .port(Port::input("CBS_WIDTH", "cfg_data"))
        .item(Item::Comment(
            "CBS map table: queue -> shaper; CBS table: {idleslope, sendslope}".into(),
        ))
        .item(Item::Memory {
            width: "MAP_WIDTH".into(),
            depth: "QUEUE_NUM".into(),
            name: "cbs_map_tbl".into(),
        })
        .item(Item::Memory {
            width: "CBS_WIDTH".into(),
            depth: "CBS_DEPTH".into(),
            name: "cbs_tbl".into(),
        })
        .item(Item::Memory {
            width: "32".into(),
            depth: "CBS_DEPTH".into(),
            name: "credit".into(),
        })
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: vec!["if (cfg_wr) cbs_tbl[cfg_addr] <= cfg_data;".into()],
        })
        .item(Item::Wire {
            width: "QUEUE_NUM".into(),
            name: "eligible".into(),
        })
        .item(Item::Assign {
            lhs: "eligible".into(),
            rhs: "queue_ready & out_gate_state".into(),
        })
        .item(Item::Comment(
            "strict priority: highest eligible queue index wins".into(),
        ))
        .item(Item::Always {
            sensitivity: "posedge clk".into(),
            body: priority_encoder_body(queues),
        });
    m
}

fn priority_encoder_body(queues: u32) -> Vec<String> {
    let mut body = vec![
        "if (!rst_n) begin".to_owned(),
        "    grant_onehot <= 0;".to_owned(),
        "end else begin".to_owned(),
        "    grant_onehot <= 0;".to_owned(),
    ];
    for q in (0..queues).rev() {
        let keyword = if q == queues - 1 { "if" } else { "else if" };
        body.push(format!(
            "    {keyword} (eligible[{q}]) grant_onehot[{q}] <= 1'b1;"
        ));
    }
    body.push("end".to_owned());
    body
}

/// Top level: Time Sync + shared Packet Switch / Ingress Filter + one
/// Gate Ctrl and Egress Sched per enabled TSN port.
fn top(config: &ResourceConfig) -> Module {
    let ports = config.port_num().max(1);
    let mut m = Module::new("tsn_switch_top");
    m.param("PORT_NUM", ports)
        .param("META_WIDTH", config.widths().queue_meta_bits)
        .param("QUEUE_NUM", config.queue_num())
        .port(Port::input("1", "clk"))
        .port(Port::input("1", "rst_n"))
        .port(Port::input("1", "rx_valid"))
        .port(Port::input("60", "rx_key"))
        .port(Port::input("16", "rx_bytes"))
        .port(Port::output("PORT_NUM*META_WIDTH", "tx_meta"))
        .port(Port::input("1", "cfg_wr"))
        .port(Port::input("32", "cfg_addr"))
        .port(Port::input("128", "cfg_data"))
        .item(Item::Comment(format!(
            "generated by tsn-builder: {} unicast, {} class, {} meters, gate {}x{}q, depth {}, {} buffers, {} port(s)",
            config.unicast_size(),
            config.class_size(),
            config.meter_size(),
            config.gate_size(),
            config.queue_num(),
            config.queue_depth(),
            config.buffer_num(),
            ports,
        )))
        .item(Item::Wire {
            width: "64".into(),
            name: "ptp_time".into(),
        })
        .item(Item::Instance {
            module: "time_sync".into(),
            name: "u_time_sync".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("rst_n".into(), "rst_n".into()),
                ("corr_wr".into(), "cfg_wr".into()),
                ("corr_offset".into(), "cfg_data[63:0]".into()),
                ("corr_rate".into(), "cfg_data[95:64]".into()),
                ("ptp_time".into(), "ptp_time".into()),
            ],
        })
        .item(Item::Wire {
            width: "1".into(),
            name: "lookup_hit".into(),
        })
        .item(Item::Wire {
            width: "4".into(),
            name: "lookup_port".into(),
        })
        .item(Item::Instance {
            module: "packet_switch".into(),
            name: "u_packet_switch".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("rst_n".into(), "rst_n".into()),
                ("lookup_valid".into(), "rx_valid".into()),
                ("lookup_key".into(), "rx_key".into()),
                ("is_multicast".into(), "1'b0".into()),
                ("mc_index".into(), "0".into()),
                ("hit".into(), "lookup_hit".into()),
                ("out_port".into(), "lookup_port".into()),
                ("cfg_wr".into(), "cfg_wr".into()),
                ("cfg_addr".into(), "cfg_addr[9:0]".into()),
                ("cfg_data".into(), "cfg_data[71:0]".into()),
            ],
        })
        .item(Item::Wire {
            width: "1".into(),
            name: "filter_accept".into(),
        })
        .item(Item::Wire {
            width: "3".into(),
            name: "filter_queue".into(),
        })
        .item(Item::Instance {
            module: "ingress_filter".into(),
            name: "u_ingress_filter".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), "clk".into()),
                ("rst_n".into(), "rst_n".into()),
                ("classify_valid".into(), "rx_valid".into()),
                ("class_index".into(), "cfg_addr[9:0]".into()),
                ("frame_bytes".into(), "rx_bytes".into()),
                ("accept".into(), "filter_accept".into()),
                ("queue_id".into(), "filter_queue".into()),
                ("cfg_wr".into(), "cfg_wr".into()),
                ("cfg_addr".into(), "cfg_addr[9:0]".into()),
                ("cfg_data".into(), "cfg_data[116:0]".into()),
            ],
        });
    for p in 0..ports {
        m.item(Item::Comment(format!("enabled TSN port {p}")))
            .item(Item::Wire {
                width: "QUEUE_NUM".into(),
                name: format!("p{p}_in_gate"),
            })
            .item(Item::Wire {
                width: "QUEUE_NUM".into(),
                name: format!("p{p}_out_gate"),
            })
            .item(Item::Wire {
                width: "QUEUE_NUM".into(),
                name: format!("p{p}_empty"),
            })
            .item(Item::Wire {
                width: "QUEUE_NUM".into(),
                name: format!("p{p}_full"),
            })
            .item(Item::Wire {
                width: "QUEUE_NUM".into(),
                name: format!("p{p}_grant"),
            })
            .item(Item::Instance {
                module: "gate_ctrl".into(),
                name: format!("u_gate_ctrl{p}"),
                params: vec![],
                connections: vec![
                    ("clk".into(), "clk".into()),
                    ("rst_n".into(), "rst_n".into()),
                    ("ptp_time".into(), "ptp_time".into()),
                    (
                        "enq_valid".into(),
                        format!("rx_valid & filter_accept & lookup_hit & (lookup_port == {p})"),
                    ),
                    (
                        "enq_queue_onehot".into(),
                        "{{(QUEUE_NUM-1){1'b0}}, 1'b1} << filter_queue".into(),
                    ),
                    ("enq_meta".into(), "rx_key[META_WIDTH-1:0]".into()),
                    ("deq_queue_onehot".into(), format!("p{p}_grant")),
                    (
                        "deq_meta".into(),
                        format!("tx_meta[{p}*META_WIDTH +: META_WIDTH]"),
                    ),
                    ("in_gate_state".into(), format!("p{p}_in_gate")),
                    ("out_gate_state".into(), format!("p{p}_out_gate")),
                    ("queue_empty".into(), format!("p{p}_empty")),
                    ("queue_full".into(), format!("p{p}_full")),
                    ("cfg_wr".into(), "cfg_wr".into()),
                    ("cfg_addr".into(), "cfg_addr[0:0]".into()),
                    ("cfg_data".into(), "cfg_data[33:0]".into()),
                ],
            })
            .item(Item::Instance {
                module: "egress_sched".into(),
                name: format!("u_egress_sched{p}"),
                params: vec![],
                connections: vec![
                    ("clk".into(), "clk".into()),
                    ("rst_n".into(), "rst_n".into()),
                    ("queue_ready".into(), format!("~p{p}_empty")),
                    ("out_gate_state".into(), format!("p{p}_out_gate")),
                    ("grant_onehot".into(), format!("p{p}_grant")),
                    ("cfg_wr".into(), "cfg_wr".into()),
                    ("cfg_addr".into(), "cfg_addr[1:0]".into()),
                    ("cfg_data".into(), "cfg_data[63:0]".into()),
                ],
            });
    }
    m
}

/// A smoke testbench: 125 MHz clock, reset, a couple of configuration
/// writes and a lookup pulse, then `$finish`. Enough to elaborate the
/// whole design in any simulator and watch the datapath move.
fn testbench(config: &ResourceConfig) -> Module {
    let mut m = Module::new("tsn_switch_tb");
    m.item(Item::Comment(
        "smoke testbench generated alongside the design".into(),
    ))
    .item(Item::Reg {
        width: "1".into(),
        name: "clk".into(),
    })
    .item(Item::Reg {
        width: "1".into(),
        name: "rst_n".into(),
    })
    .item(Item::Reg {
        width: "1".into(),
        name: "rx_valid".into(),
    })
    .item(Item::Reg {
        width: "60".into(),
        name: "rx_key".into(),
    })
    .item(Item::Reg {
        width: "16".into(),
        name: "rx_bytes".into(),
    })
    .item(Item::Reg {
        width: "1".into(),
        name: "cfg_wr".into(),
    })
    .item(Item::Reg {
        width: "32".into(),
        name: "cfg_addr".into(),
    })
    .item(Item::Reg {
        width: "128".into(),
        name: "cfg_data".into(),
    })
    .item(Item::Wire {
        width: format!(
            "{}*{}",
            config.port_num().max(1),
            config.widths().queue_meta_bits
        ),
        name: "tx_meta".into(),
    })
    .item(Item::Instance {
        module: "tsn_switch_top".into(),
        name: "dut".into(),
        params: vec![],
        connections: vec![
            ("clk".into(), "clk".into()),
            ("rst_n".into(), "rst_n".into()),
            ("rx_valid".into(), "rx_valid".into()),
            ("rx_key".into(), "rx_key".into()),
            ("rx_bytes".into(), "rx_bytes".into()),
            ("tx_meta".into(), "tx_meta".into()),
            ("cfg_wr".into(), "cfg_wr".into()),
            ("cfg_addr".into(), "cfg_addr".into()),
            ("cfg_data".into(), "cfg_data".into()),
        ],
    })
    .item(Item::Comment("125 MHz clock".into()))
    .item(Item::Raw("always #4 clk = ~clk;".into()))
    .item(Item::Initial {
        body: vec![
            "clk = 1'b0;".into(),
            "rst_n = 1'b0;".into(),
            "rx_valid = 1'b0;".into(),
            "rx_key = 0;".into(),
            "rx_bytes = 16'd64;".into(),
            "cfg_wr = 1'b0;".into(),
            "cfg_addr = 0;".into(),
            "cfg_data = 0;".into(),
            "#40 rst_n = 1'b1;".into(),
            "// program one unicast entry".into(),
            "#8 cfg_wr = 1'b1;".into(),
            "cfg_addr = 32'd1;".into(),
            "cfg_data = 128'h2a;".into(),
            "#8 cfg_wr = 1'b0;".into(),
            "// present one frame key".into(),
            "#8 rx_valid = 1'b1;".into(),
            "rx_key = 60'h2a;".into(),
            "#8 rx_valid = 1'b0;".into(),
            "#400 $finish;".into(),
        ],
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(1), 0);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(3), 2);
        assert_eq!(clog2(8), 3);
        assert_eq!(clog2(1024), 10);
        assert_eq!(clog2(1025), 11);
        assert_eq!(
            addr_width(1),
            1,
            "a 1-deep memory still needs an address bit"
        );
    }

    #[test]
    fn generate_produces_all_nine_files() {
        let bundle = generate(&ResourceConfig::new()).expect("generation succeeds");
        let names: Vec<&str> = bundle.files().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dpram.v",
                "meta_fifo.v",
                "time_sync.v",
                "packet_switch.v",
                "ingress_filter.v",
                "gate_ctrl.v",
                "egress_sched.v",
                "tsn_switch_top.v",
                "tsn_switch_tb.v"
            ]
        );
        assert!(bundle.total_lines() > 200, "non-trivial RTL volume");
        let tb = bundle.file("tsn_switch_tb.v").expect("testbench emitted");
        assert!(tb.contains("tsn_switch_top dut ("));
        assert!(tb.contains("$finish"));
    }

    #[test]
    fn parameters_reflect_the_resource_config() {
        let mut cfg = ResourceConfig::new();
        cfg.set_class_tbl(2048)
            .expect("valid")
            .set_queues(24, 8, 2)
            .expect("valid");
        let bundle = generate(&cfg).expect("generation succeeds");
        let filter = bundle.file("ingress_filter.v").expect("file exists");
        assert!(filter.contains("parameter CLASS_DEPTH = 2048"));
        let gates = bundle.file("gate_ctrl.v").expect("file exists");
        assert!(gates.contains("parameter QUEUE_DEPTH = 24"));
        let top = bundle.file("tsn_switch_top.v").expect("file exists");
        assert!(top.contains("parameter PORT_NUM = 2"));
        assert!(top.contains("u_gate_ctrl1"));
        assert!(!top.contains("u_gate_ctrl2"));
    }

    #[test]
    fn per_queue_fifos_are_instantiated() {
        let bundle = generate(&ResourceConfig::new()).expect("generation succeeds");
        let gates = bundle.file("gate_ctrl.v").expect("file exists");
        for q in 0..8 {
            assert!(gates.contains(&format!("u_queue{q}")), "queue {q} FIFO");
        }
    }

    #[test]
    fn every_file_passes_validation_for_varied_configs() {
        for ports in [1u32, 2, 3, 4] {
            let mut cfg = ResourceConfig::new();
            cfg.set_gate_tbl(2, 8, ports)
                .expect("valid")
                .set_buffers(96, ports)
                .expect("valid");
            let bundle = generate(&cfg).expect("generation succeeds");
            for (name, src) in bundle.files() {
                crate::check_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn a_module_declared_in_two_files_is_rejected() {
        let module = |name: &str| format!("module {name} (\n    input clk\n);\nendmodule\n");
        let files = |names: [&str; 3]| -> Vec<(String, String)> {
            names
                .iter()
                .enumerate()
                .map(|(i, name)| (format!("f{i}.v"), module(name)))
                .collect()
        };
        assert!(check_files(&files(["a", "b", "c"])).is_ok());
        let err = check_files(&files(["a", "b", "a"])).expect_err("duplicate across files");
        assert!(err.to_string().contains("duplicate module \"a\""), "{err}");
        // The same bundle fails the whole-bundle check it stands in for.
        let concatenated = HdlBundle {
            files: files(["a", "b", "a"]),
        }
        .concatenated();
        assert!(crate::check_source(&concatenated).is_err());
    }

    #[test]
    fn top_comment_documents_the_customization() {
        let bundle = generate(&tsn_resource::baseline::bcm53154()).expect("generation succeeds");
        let top = bundle.file("tsn_switch_top.v").expect("file exists");
        assert!(top.contains("16384 unicast"));
        assert!(top.contains("4 port(s)"));
    }
}
