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

use crate::ast::{Instance, Item, Module};
use crate::expr::Expr;
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

/// The nine template modules for `config`, in file order, top module
/// and testbench last. Each is emitted as `<name>.v`.
#[must_use]
pub fn modules(config: &ResourceConfig) -> Vec<Module> {
    vec![
        dpram(),
        meta_fifo(),
        time_sync(),
        packet_switch(config),
        ingress_filter(config),
        gate_ctrl(config),
        egress_sched(config),
        top(config),
        testbench(config),
    ]
}

/// Generates the complete per-switch HDL bundle for `config` — every
/// [`modules`] entry rendered into its own file — and validates every
/// file.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] if any generated file fails
/// lexical validation (a generator bug), or propagates configuration
/// errors.
pub fn generate(config: &ResourceConfig) -> TsnResult<HdlBundle> {
    let files: Vec<(String, String)> = modules(config)
        .iter()
        .map(|m| (format!("{}.v", m.name), m.render()))
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

/// A `dpram` table instance addressed by the `{prefix}_AW`/`{prefix}_DEPTH`
/// pair and `width` parameter.
fn table(name: &str, width: &str, prefix: &str, connections: &[(&str, &str)]) -> Instance {
    let (depth, aw) = (format!("{prefix}_DEPTH"), format!("{prefix}_AW"));
    Instance::new("dpram", name)
        .params(&[("WIDTH", width), ("DEPTH", &depth), ("ADDR_WIDTH", &aw)])
        .connect(connections)
}

/// Generic simple-dual-port RAM, the BRAM-inferrable primitive every
/// table maps onto.
fn dpram() -> Module {
    let mut m = Module::new("dpram");
    m.param("WIDTH", 32)
        .param("DEPTH", 1024)
        .param("ADDR_WIDTH", 10)
        .input(1, "clk")
        .input(1, "wr_en")
        .input("ADDR_WIDTH", "wr_addr")
        .input("WIDTH", "wr_data")
        .input("ADDR_WIDTH", "rd_addr")
        .output_reg("WIDTH", "rd_data")
        .comment("inferred block RAM; one 18Kb/36Kb primitive per instance")
        .memory("WIDTH", "DEPTH", "mem")
        .clocked(&[
            "if (wr_en) mem[wr_addr] <= wr_data;",
            "rd_data <= mem[rd_addr];",
        ]);
    m
}

/// Metadata FIFO: one per queue, depth = `queue_depth`.
fn meta_fifo() -> Module {
    let mut m = Module::new("meta_fifo");
    m.param("WIDTH", 32)
        .param("DEPTH", 12)
        .param("ADDR_WIDTH", 4)
        .input(1, "clk")
        .input(1, "rst_n")
        .input(1, "push")
        .input("WIDTH", "din")
        .input(1, "pop")
        .output_reg("WIDTH", "dout")
        .output(1, "full")
        .output(1, "empty")
        .memory("WIDTH", "DEPTH", "mem")
        .reg(Expr::from("ADDR_WIDTH") + 1, "wr_ptr")
        .reg(Expr::from("ADDR_WIDTH") + 1, "rd_ptr")
        .wire(Expr::from("ADDR_WIDTH") + 1, "level")
        .assign("level", "wr_ptr - rd_ptr")
        .assign("full", "level == DEPTH")
        .assign("empty", "level == 0")
        .clocked(&[
            "if (!rst_n) begin",
            "    wr_ptr <= 0;",
            "    rd_ptr <= 0;",
            "end else begin",
            "    if (push && !full) begin",
            "        mem[wr_ptr[ADDR_WIDTH-1:0]] <= din;",
            "        wr_ptr <= wr_ptr + 1;",
            "    end",
            "    if (pop && !empty) begin",
            "        dout <= mem[rd_ptr[ADDR_WIDTH-1:0]];",
            "        rd_ptr <= rd_ptr + 1;",
            "    end",
            "end",
        ]);
    m
}

/// gPTP correction datapath: offset + rate-ratio registers applied to the
/// free-running counter (the "clock correction" submodule of Fig. 5).
fn time_sync() -> Module {
    let mut m = Module::new("time_sync");
    m.param("TS_WIDTH", 64)
        .param("FRAC_WIDTH", 32)
        .input(1, "clk")
        .input(1, "rst_n")
        .input(1, "corr_wr")
        .input("TS_WIDTH", "corr_offset")
        .input("FRAC_WIDTH", "corr_rate")
        .output_reg("TS_WIDTH", "ptp_time")
        .comment("collection of clock time: free-running counter")
        .reg("TS_WIDTH", "raw_time")
        .reg("TS_WIDTH", "offset_reg")
        .reg("FRAC_WIDTH", "rate_reg")
        .comment("calculation of correction time happens on the embedded CPU; the")
        .comment("result is written through corr_wr (clock correction submodule)")
        .clocked(&[
            "if (!rst_n) begin",
            "    raw_time <= 0;",
            "    offset_reg <= 0;",
            "    rate_reg <= 0;",
            "    ptp_time <= 0;",
            "end else begin",
            "    raw_time <= raw_time + 8; // 125 MHz -> 8 ns per cycle",
            "    if (corr_wr) begin",
            "        offset_reg <= corr_offset;",
            "        rate_reg <= corr_rate;",
            "    end",
            "    ptp_time <= raw_time + offset_reg + ((raw_time * rate_reg) >> FRAC_WIDTH);",
            "end",
        ]);
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
        .input(1, "clk")
        .input(1, "rst_n")
        .input(1, "lookup_valid")
        .input("KEY_WIDTH", "lookup_key")
        .input(1, "is_multicast")
        .input("MULTICAST_AW", "mc_index")
        .output_reg(1, "hit")
        .output_reg("PORT_WIDTH", "out_port")
        .input(1, "cfg_wr")
        .input("UNICAST_AW", "cfg_addr")
        .input("ENTRY_WIDTH", "cfg_data")
        .comment("lookup submodule: hash-indexed unicast table (Dst MAC + VID)")
        .wire("UNICAST_AW", "hash_index")
        .assign(
            "hash_index",
            "lookup_key[UNICAST_AW-1:0] ^ lookup_key[2*UNICAST_AW-1:UNICAST_AW]",
        )
        .wire("ENTRY_WIDTH", "unicast_entry")
        .item(table(
            "u_unicast_tbl",
            "ENTRY_WIDTH",
            "UNICAST",
            &[
                ("clk", "clk"),
                ("wr_en", "cfg_wr"),
                ("wr_addr", "cfg_addr"),
                ("wr_data", "cfg_data"),
                ("rd_addr", "hash_index"),
                ("rd_data", "unicast_entry"),
            ],
        ))
        .wire("ENTRY_WIDTH", "multicast_entry")
        .item(table(
            "u_multicast_tbl",
            "ENTRY_WIDTH",
            "MULTICAST",
            &[
                ("clk", "clk"),
                ("wr_en", "1'b0"),
                ("wr_addr", "mc_index"),
                ("wr_data", "multicast_entry"),
                ("rd_addr", "mc_index"),
                ("rd_data", "multicast_entry"),
            ],
        ))
        .comment("entry layout: [KEY_WIDTH-1:0] stored key, then the out-port")
        .clocked(&[
            "if (!rst_n) begin",
            "    hit <= 1'b0;",
            "    out_port <= 0;",
            "end else if (lookup_valid) begin",
            "    if (is_multicast) begin",
            "        hit <= 1'b1;",
            "        out_port <= multicast_entry[PORT_WIDTH-1:0];",
            "    end else begin",
            "        hit <= unicast_entry[KEY_WIDTH-1:0] == lookup_key;",
            "        out_port <= unicast_entry[KEY_WIDTH+PORT_WIDTH-1:KEY_WIDTH];",
            "    end",
            "end",
        ]);
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
        .input(1, "clk")
        .input(1, "rst_n")
        .input(1, "classify_valid")
        .input("CLASS_AW", "class_index")
        .input(16, "frame_bytes")
        .output_reg(1, "accept")
        .output_reg("QUEUE_WIDTH", "queue_id")
        .input(1, "cfg_wr")
        .input("CLASS_AW", "cfg_addr")
        .input("CLASS_WIDTH", "cfg_data")
        .comment("classifier: (Src MAC, Dst MAC, VID, PRI) hashed upstream to class_index")
        .wire("CLASS_WIDTH", "class_entry")
        .item(table(
            "u_class_tbl",
            "CLASS_WIDTH",
            "CLASS",
            &[
                ("clk", "clk"),
                ("wr_en", "cfg_wr"),
                ("wr_addr", "cfg_addr"),
                ("wr_data", "cfg_data"),
                ("rd_addr", "class_index"),
                ("rd_data", "class_entry"),
            ],
        ))
        .comment("meter table: entry = {tokens[31:0], rate[23:0], burst[11:0]}")
        .memory("METER_WIDTH", "METER_DEPTH", "meter_tbl")
        .wire("METER_AW", "meter_id")
        .assign("meter_id", "class_entry[METER_AW-1:0]")
        .reg(32, "tokens")
        .clocked(&[
            "if (!rst_n) begin",
            "    accept <= 1'b0;",
            "    queue_id <= 0;",
            "    tokens <= 0;",
            "end else if (classify_valid) begin",
            "    // token-bucket police: refill then charge",
            "    tokens = meter_tbl[meter_id][31:0] + meter_tbl[meter_id][55:32];",
            "    if (tokens >= {16'd0, frame_bytes}) begin",
            "        meter_tbl[meter_id][31:0] <= tokens - {16'd0, frame_bytes};",
            "        accept <= 1'b1;",
            "    end else begin",
            "        meter_tbl[meter_id][31:0] <= tokens;",
            "        accept <= 1'b0;",
            "    end",
            "    queue_id <= class_entry[METER_AW+QUEUE_WIDTH-1:METER_AW];",
            "end",
        ]);
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
        .input(1, "clk")
        .input(1, "rst_n")
        .input(64, "ptp_time")
        .input(1, "enq_valid")
        .input("QUEUE_NUM", "enq_queue_onehot")
        .input("META_WIDTH", "enq_meta")
        .input("QUEUE_NUM", "deq_queue_onehot")
        .output("META_WIDTH", "deq_meta")
        .output("QUEUE_NUM", "in_gate_state")
        .output("QUEUE_NUM", "out_gate_state")
        .output("QUEUE_NUM", "queue_empty")
        .output("QUEUE_NUM", "queue_full")
        .input(1, "cfg_wr")
        .input("GCL_AW", "cfg_addr")
        .input(Expr::from(2) * "GATE_WIDTH", "cfg_data")
        .comment("update module: the current slot selects one In/Out GCL entry")
        .memory("GATE_WIDTH", "GCL_DEPTH", "in_gcl")
        .memory("GATE_WIDTH", "GCL_DEPTH", "out_gcl")
        .wire(64, "slot_index")
        .assign("slot_index", "ptp_time / SLOT_NS")
        .wire("GCL_AW", "gcl_sel")
        .assign("gcl_sel", "slot_index % GCL_DEPTH")
        .assign("in_gate_state", "in_gcl[gcl_sel][QUEUE_NUM-1:0]")
        .assign("out_gate_state", "out_gcl[gcl_sel][QUEUE_NUM-1:0]")
        .clocked(&[
            "if (cfg_wr) begin",
            "    in_gcl[cfg_addr] <= cfg_data[GATE_WIDTH-1:0];",
            "    out_gcl[cfg_addr] <= cfg_data[2*GATE_WIDTH-1:GATE_WIDTH];",
            "end",
        ])
        .comment("per-queue metadata FIFOs (one BRAM primitive each)")
        .wire(Expr::from("QUEUE_NUM") * "META_WIDTH", "deq_meta_bus");
    for q in 0..queues {
        m.item(
            Instance::new("meta_fifo", format!("u_queue{q}"))
                .params(&[
                    ("WIDTH", "META_WIDTH"),
                    ("DEPTH", "QUEUE_DEPTH"),
                    ("ADDR_WIDTH", "QUEUE_AW"),
                ])
                .connect(&[
                    ("clk", "clk"),
                    ("rst_n", "rst_n"),
                    (
                        "push",
                        &format!("enq_valid & enq_queue_onehot[{q}] & in_gate_state[{q}]"),
                    ),
                    ("din", "enq_meta"),
                    (
                        "pop",
                        &format!("deq_queue_onehot[{q}] & out_gate_state[{q}]"),
                    ),
                    (
                        "dout",
                        &format!("deq_meta_bus[{q}*META_WIDTH +: META_WIDTH]"),
                    ),
                    ("full", &format!("queue_full[{q}]")),
                    ("empty", &format!("queue_empty[{q}]")),
                ]),
        );
    }
    m.comment("dequeue mux over the one-hot selected queue")
        .assign("deq_meta", mux_expr(queues));
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
        .input(1, "clk")
        .input(1, "rst_n")
        .input("QUEUE_NUM", "queue_ready")
        .input("QUEUE_NUM", "out_gate_state")
        .output_reg("QUEUE_NUM", "grant_onehot")
        .input(1, "cfg_wr")
        .input("CBS_AW", "cfg_addr")
        .input("CBS_WIDTH", "cfg_data")
        .comment("CBS map table: queue -> shaper; CBS table: {idleslope, sendslope}")
        .memory("MAP_WIDTH", "QUEUE_NUM", "cbs_map_tbl")
        .memory("CBS_WIDTH", "CBS_DEPTH", "cbs_tbl")
        .memory(32, "CBS_DEPTH", "credit")
        .clocked(&["if (cfg_wr) cbs_tbl[cfg_addr] <= cfg_data;"])
        .wire("QUEUE_NUM", "eligible")
        .assign("eligible", "queue_ready & out_gate_state")
        .comment("strict priority: highest eligible queue index wins")
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
        .input(1, "clk")
        .input(1, "rst_n")
        .input(1, "rx_valid")
        .input(60, "rx_key")
        .input(16, "rx_bytes")
        .output(Expr::from("PORT_NUM") * "META_WIDTH", "tx_meta")
        .input(1, "cfg_wr")
        .input(32, "cfg_addr")
        .input(128, "cfg_data")
        .comment(format!(
            "generated by tsn-builder: {} unicast, {} class, {} meters, gate {}x{}q, depth {}, {} buffers, {} port(s)",
            config.unicast_size(),
            config.class_size(),
            config.meter_size(),
            config.gate_size(),
            config.queue_num(),
            config.queue_depth(),
            config.buffer_num(),
            ports,
        ))
        .wire(64, "ptp_time")
        .item(Instance::new("time_sync", "u_time_sync").connect(&[
            ("clk", "clk"),
            ("rst_n", "rst_n"),
            ("corr_wr", "cfg_wr"),
            ("corr_offset", "cfg_data[63:0]"),
            ("corr_rate", "cfg_data[95:64]"),
            ("ptp_time", "ptp_time"),
        ]))
        .wire(1, "lookup_hit")
        .wire(4, "lookup_port")
        .item(Instance::new("packet_switch", "u_packet_switch").connect(&[
            ("clk", "clk"),
            ("rst_n", "rst_n"),
            ("lookup_valid", "rx_valid"),
            ("lookup_key", "rx_key"),
            ("is_multicast", "1'b0"),
            ("mc_index", "0"),
            ("hit", "lookup_hit"),
            ("out_port", "lookup_port"),
            ("cfg_wr", "cfg_wr"),
            ("cfg_addr", "cfg_addr[9:0]"),
            ("cfg_data", "cfg_data[71:0]"),
        ]))
        .wire(1, "filter_accept")
        .wire(3, "filter_queue")
        .item(Instance::new("ingress_filter", "u_ingress_filter").connect(&[
            ("clk", "clk"),
            ("rst_n", "rst_n"),
            ("classify_valid", "rx_valid"),
            ("class_index", "cfg_addr[9:0]"),
            ("frame_bytes", "rx_bytes"),
            ("accept", "filter_accept"),
            ("queue_id", "filter_queue"),
            ("cfg_wr", "cfg_wr"),
            ("cfg_addr", "cfg_addr[9:0]"),
            ("cfg_data", "cfg_data[116:0]"),
        ]));
    for p in 0..ports {
        let net = |what: &str| format!("p{p}_{what}");
        m.comment(format!("enabled TSN port {p}"));
        for what in ["in_gate", "out_gate", "empty", "full", "grant"] {
            m.wire("QUEUE_NUM", net(what));
        }
        m.item(
            Instance::new("gate_ctrl", format!("u_gate_ctrl{p}")).connect(&[
                ("clk", "clk"),
                ("rst_n", "rst_n"),
                ("ptp_time", "ptp_time"),
                (
                    "enq_valid",
                    &format!("rx_valid & filter_accept & lookup_hit & (lookup_port == {p})"),
                ),
                (
                    "enq_queue_onehot",
                    "{{(QUEUE_NUM-1){1'b0}}, 1'b1} << filter_queue",
                ),
                ("enq_meta", "rx_key[META_WIDTH-1:0]"),
                ("deq_queue_onehot", &net("grant")),
                (
                    "deq_meta",
                    &format!("tx_meta[{p}*META_WIDTH +: META_WIDTH]"),
                ),
                ("in_gate_state", &net("in_gate")),
                ("out_gate_state", &net("out_gate")),
                ("queue_empty", &net("empty")),
                ("queue_full", &net("full")),
                ("cfg_wr", "cfg_wr"),
                ("cfg_addr", "cfg_addr[0:0]"),
                ("cfg_data", "cfg_data[33:0]"),
            ]),
        )
        .item(
            Instance::new("egress_sched", format!("u_egress_sched{p}")).connect(&[
                ("clk", "clk"),
                ("rst_n", "rst_n"),
                ("queue_ready", &format!("~{}", net("empty"))),
                ("out_gate_state", &net("out_gate")),
                ("grant_onehot", &net("grant")),
                ("cfg_wr", "cfg_wr"),
                ("cfg_addr", "cfg_addr[1:0]"),
                ("cfg_data", "cfg_data[63:0]"),
            ]),
        );
    }
    m
}

/// A smoke testbench: 125 MHz clock, reset, a couple of configuration
/// writes and a lookup pulse, then `$finish`. Enough to elaborate the
/// whole design in any simulator and watch the datapath move.
fn testbench(config: &ResourceConfig) -> Module {
    let mut m = Module::new("tsn_switch_tb");
    m.comment("smoke testbench generated alongside the design");
    for (width, name) in [
        (1, "clk"),
        (1, "rst_n"),
        (1, "rx_valid"),
        (60, "rx_key"),
        (16, "rx_bytes"),
        (1, "cfg_wr"),
        (32, "cfg_addr"),
        (128, "cfg_data"),
    ] {
        m.reg(width, name);
    }
    let tx_width = Expr::from(config.port_num().max(1)) * config.widths().queue_meta_bits;
    m.wire(tx_width, "tx_meta")
        .item(Instance::new("tsn_switch_top", "dut").connect(&[
            ("clk", "clk"),
            ("rst_n", "rst_n"),
            ("rx_valid", "rx_valid"),
            ("rx_key", "rx_key"),
            ("rx_bytes", "rx_bytes"),
            ("tx_meta", "tx_meta"),
            ("cfg_wr", "cfg_wr"),
            ("cfg_addr", "cfg_addr"),
            ("cfg_data", "cfg_data"),
        ]))
        .comment("125 MHz clock")
        .item(Item::Raw("always #4 clk = ~clk;".into()))
        .item(Item::Initial {
            body: [
                "clk = 1'b0;",
                "rst_n = 1'b0;",
                "rx_valid = 1'b0;",
                "rx_key = 0;",
                "rx_bytes = 16'd64;",
                "cfg_wr = 1'b0;",
                "cfg_addr = 0;",
                "cfg_data = 0;",
                "#40 rst_n = 1'b1;",
                "// program one unicast entry",
                "#8 cfg_wr = 1'b1;",
                "cfg_addr = 32'd1;",
                "cfg_data = 128'h2a;",
                "#8 cfg_wr = 1'b0;",
                "// present one frame key",
                "#8 rx_valid = 1'b1;",
                "rx_key = 60'h2a;",
                "#8 rx_valid = 1'b0;",
                "#400 $finish;",
            ]
            .map(str::to_owned)
            .to_vec(),
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
