//! Diagnostics pin: the full text of every diagnostic the machine check
//! prints, in order, asserted verbatim against `diagnostics.txt`.
//!
//! The cases are one-token defects planted in the default bundle (the
//! first three are the ones `crates/verify/tests/harness.rs` plants),
//! one small hand-written source per lint rule, cost failure and parse
//! error, and sources for the lexical check. For each parsed case the
//! pin records every [`LintFinding`]'s rule, module and message, then
//! `check_agreement`'s verdict (bundle cases) or `cost_of`'s (hand
//! cases); a source that does not parse records the parse error
//! instead. For each lexical case it records `check_source`'s verdict.
//!
//! [`LintFinding`]: tsn_hdl::LintFinding

use std::fmt::Write as _;
use tsn_hdl::{check_agreement, check_source, cost_of, generate, lint_modules, parse_modules};
use tsn_resource::ResourceConfig;

/// `(case, text to replace, replacement)` edits of the default bundle.
const PLANTED: &[(&str, &str, &str)] = &[
    (
        "width",
        "wire [QUEUE_NUM-1:0] p0_grant;",
        "wire [2:0] p0_grant;",
    ),
    (
        "depth",
        "parameter QUEUE_DEPTH = 12",
        "parameter QUEUE_DEPTH = 13",
    ),
    ("aw", "parameter QUEUE_AW = 4", "parameter QUEUE_AW = 2"),
    (
        "memdepth",
        "reg [32-1:0] credit [0:CBS_DEPTH-1];",
        "reg [32-1:0] credit [0:CBS_DEPTHX-1];",
    ),
    (
        "memwidth",
        "reg [METER_WIDTH-1:0] meter_tbl",
        "reg [METER_W-1:0] meter_tbl",
    ),
    ("regwidth", "reg [32-1:0] tokens;", "reg [TOKW-1:0] tokens;"),
    (
        "portreg",
        "output reg [QUEUE_WIDTH-1:0] queue_id",
        "output reg [QW-1:0] queue_id",
    ),
    ("div0", "reg [32-1:0] tokens;", "reg [32/0:0] tokens;"),
    (
        "overflow",
        "reg [32-1:0] tokens;",
        "reg [9223372036854775807:-9223372036854775807] tokens;",
    ),
    (
        "negoverflow",
        "reg [32-1:0] tokens;",
        "reg [-(-9223372036854775807-1):0] tokens;",
    ),
    ("nomodule", "module dpram", "module dpram2"),
];

/// `(case, source, root module for cost_of)`.
const HAND: &[(&str, &str, &str)] = &[
    (
        "duplicate-parameter",
        "module m #(\n parameter W = 8,\n parameter W = 9,\n parameter W = 10\n) ( input clk );\nwire x;\nassign x = clk & W;\nendmodule\nmodule top ( input clk );\nm #(.W(1), .W(2)) u0 ( .clk(clk) );\nendmodule\n",
        "top",
    ),
    (
        "duplicate-port",
        "module m ( input clk, input clk, output q, output q );\nassign q = clk;\nendmodule\nmodule top ( input clk );\nwire q;\nm u0 ( .clk(clk), .clk(clk), .q(q) );\nendmodule\n",
        "top",
    ),
    (
        "unused-port",
        "module m ( input clk, input unused_in, output unused_out, output reg [3:0] r_out, input [7:0] bus );\nwire x;\nassign x = clk; // bus\nendmodule\n",
        "m",
    ),
    (
        "addr-width",
        "module m #(\n parameter DEPTH = 16,\n parameter ADDR_WIDTH = 3,\n parameter Q_DEPTH = 100,\n parameter Q_AW = 6\n) ( input clk );\nwire x;\nassign x = clk;\nendmodule\nmodule top #(\n parameter BIG = 64\n) ( input clk );\nm #(.DEPTH(BIG), .ADDR_WIDTH(5), .Q_AW(2)) u0 ( .clk(clk) );\nendmodule\n",
        "top",
    ),
    (
        "undeclared-identifier",
        "module child #(\n parameter W = 8\n) ( input [W-1:0] d, input e );\nwire probe;\nassign probe = d[0] & e;\nendmodule\nmodule parent ( input clk );\nwire [7:0] b;\nassign b = {8{clk}};\nchild #(.W(GHOST*2+GHOST-OTHER)) u0 ( .d({ghost_net, ghost_net, b[3:0], \"s\\\\q\"}), .e(clk & phantom) );\nendmodule\n",
        "parent",
    ),
    (
        "magic-number",
        "module child #(\n parameter DEPTH = 4,\n parameter W = 1\n) ( input clk );\nwire probe;\nassign probe = clk;\nendmodule\nmodule parent #(\n parameter QUEUE_DEPTH = 12,\n parameter ONE = 1\n) ( input clk );\nlocalparam LP = 24;\nchild #(.DEPTH(12), .W(1)) u0 ( .clk(clk) );\nchild #(.DEPTH(24)) u1 ( .clk(clk) );\nendmodule\n",
        "parent",
    ),
    (
        "unknown-module",
        "module parent ( input clk );\nwire [7:0] b;\nassign b = {8{clk}};\nmystery u2 ( .q(b) );\nenigma #(.W(3)) u3 ( );\nendmodule\n",
        "parent",
    ),
    (
        "unknown-parameter",
        "module child #(\n parameter W = 8\n) ( input [W-1:0] d );\nwire probe;\nassign probe = d[0];\nendmodule\nmodule parent ( input clk );\nwire [7:0] b;\nassign b = {8{clk}};\nchild #(.NOPE(3), .W(8), .ALSO(1)) u1 ( .d(b) );\nendmodule\n",
        "parent",
    ),
    (
        "unknown-port",
        "module child ( input [7:0] d );\nwire probe;\nassign probe = d[0];\nendmodule\nmodule parent ( input clk );\nwire [7:0] b;\nassign b = {8{clk}};\nchild u0 ( .d(b), .extra(clk), .more(b) );\nendmodule\n",
        "parent",
    ),
    (
        "unconnected-port",
        "module child ( input a, input b, output c );\nassign c = a & b;\nendmodule\nmodule parent ( input clk );\nchild u0 ( .a(clk) );\nchild u1 ( );\nendmodule\n",
        "parent",
    ),
    (
        "width-mismatch",
        "module child #(\n parameter W = 8\n) ( input [W-1:0] d, input [3:0] n, input s );\nwire probe;\nassign probe = d[0] & n[0] & s;\nendmodule\nmodule parent #(\n parameter BUS = 16\n) ( input clk );\nwire [3:0] narrow;\nwire [BUS-1:0] bus;\nassign narrow = {4{clk}};\nassign bus = {BUS{clk}};\nchild u0 ( .d(narrow), .n(8'hff), .s(narrow) );\nchild #(.W(BUS)) u1 ( .d(bus), .n(bus[3:0]), .s(2'b01) );\nendmodule\n",
        "parent",
    ),
    (
        "cost-cycle",
        "module a ( input clk );\na u0 ( .clk(clk) );\nendmodule\n",
        "a",
    ),
    (
        "cost-no-root",
        "module a ( input clk );\nwire w;\nassign w = clk;\nendmodule\n",
        "tsn_switch_top",
    ),
    (
        "cost-clean",
        "module leaf #(\n parameter W = 8,\n parameter D = 4\n) ( input clk, output reg [W-1:0] q );\nreg [W-1:0] mem [0:D-1];\nalways @(posedge clk) begin\n    q <= mem[0];\nend\nendmodule\nmodule root ( input clk );\nwire [15:0] q0;\nleaf #(.W(16), .D(32)) u0 ( .clk(clk), .q(q0) );\nendmodule\n",
        "root",
    ),
    (
        "parse-literal",
        "module m #( parameter W = 8'h00 ) ( input clk ); endmodule",
        "m",
    ),
    ("parse-endmodule", "module broken ( input clk );\n", "m"),
    ("parse-cut", "module m ( input [7", "m"),
    ("parse-port", "module m ( inout x ); endmodule", "m"),
    ("parse-param", "module m #( W ) (); endmodule", "m"),
    (
        "parse-header",
        "module m #( parameter W = 8 ) ; endmodule",
        "m",
    ),
    ("parse-name", "module 3 ( ); endmodule", "m"),
    ("parse-range", "module m ( input [7:0 x ); endmodule", "m"),
    ("parse-semicolon", "module m ( input x ) endmodule", "m"),
    (
        "parse-paren",
        "module m #( parameter W = (8 ) ( input x ); endmodule",
        "m",
    ),
    ("parse-raw", "module m ( input clk ); localparam X", "m"),
    (
        "parse-huge",
        "module m #( parameter W = 99999999999999999999 ) (); endmodule",
        "m",
    ),
];

/// `(case, source)` for `check_source`: the edge cases of its unit
/// tests, one source per message, and words the parser's tokens split
/// (`$` before a name, `'` inside a sized number).
const LEXICAL: &[(&str, &str)] = &[
    ("edge-empty", ""),
    ("edge-1", "module module 1x ();\nendmodule\nendmodule\n"),
    (
        "edge-2",
        "module module ();\nendmodule\nendmodule\nmodule module ();\nendmodule\nendmodule\n",
    ),
    ("edge-3", "module m ();\nendmodule\nmodule"),
    ("edge-4", "module 1x ();\nendmodule\n"),
    ("edge-5", "module $x ();\nendmodule\n"),
    (
        "edge-6",
        "module m$ ();\nendmodule\nmodule m$ ();\nendmodule\n",
    ),
    ("edge-7", "module/**/m ();\nendmodule\n"),
    ("edge-8", "module m (); /*/ endmodule */ endmodule"),
    ("edge-9", "module m (); // endmodule\nendmodule"),
    ("edge-10", "module m (); endmodule //"),
    ("edge-11", "module m (); endmodule /"),
    ("edge-12", "module m (); end begin endmodule"),
    ("edge-13", "module m ([)]); endmodule"),
    ("edge-14", "module m ()); begin endmodule"),
    ("edge-15", "module m (); endmodule\u{e9}module"),
    (
        "unterminated-comment",
        "module m ( input clk );\nendmodule\n/* trailing",
    ),
    ("stray-endmodule", "module a ();\nendmodule\nendmodule\n"),
    ("unclosed-module", "module a ();\n"),
    ("stray-end", "module m (); end\nendmodule\n"),
    (
        "unclosed-begin",
        "module m ( input clk );\nalways @(posedge clk) begin\nendmodule\n",
    ),
    ("unbalanced-bracket", "module m ( input d ));\nendmodule\n"),
    (
        "unclosed-bracket",
        "module m ( input [7:0] d ;\nendmodule\n",
    ),
    ("illegal-name", "module 9lives ();\nendmodule\n"),
    (
        "duplicate-name",
        "module a ();\nendmodule\nmodule a ();\nendmodule\n",
    ),
    ("missing-name", "module m ();\nendmodule\nmodule\n"),
    ("dollar-end", "module m (); begin $end end endmodule"),
    ("dollar-module", "module m (); $module x endmodule"),
    ("sized-end", "module m (); begin 1'end endmodule"),
    ("sized-module", "module m (); 8'module x; endmodule"),
    ("quote-dollar", "module 8'$x (); endmodule"),
];

/// Every diagnostic of one source: lint findings, then the agreement
/// check against `cfg`, or without one the cost of `root`.
fn diagnose(out: &mut String, src: &str, root: &str, cfg: Option<&ResourceConfig>) {
    let modules = match parse_modules(src) {
        Ok(modules) => modules,
        Err(e) => return writeln!(out, "parse: {e}").expect("writes"),
    };
    for f in lint_modules(&modules) {
        writeln!(out, "{} | {} | {}", f.rule, f.module, f.message).expect("writes");
    }
    let verdict = match cfg {
        Some(cfg) => match check_agreement(cfg, &modules) {
            Ok(()) => "agreement: ok".to_owned(),
            Err(e) => format!("agreement: {e}"),
        },
        None => match cost_of(&modules, root) {
            Ok(c) => format!(
                "cost: {} memories, {} register bits",
                c.memories.len(),
                c.register_bits
            ),
            Err(e) => format!("cost: {e}"),
        },
    };
    writeln!(out, "{verdict}").expect("writes");
}

#[test]
fn every_diagnostic_matches_the_pin_verbatim() {
    let cfg = ResourceConfig::new();
    let clean = generate(&cfg).expect("generates").concatenated();
    let mut got = String::new();
    for (case, from, to) in PLANTED {
        let planted = clean.replace(from, to);
        assert_ne!(
            planted, clean,
            "{case}: edit target must exist in the bundle"
        );
        got.push_str(&format!("=== {case}\n"));
        diagnose(&mut got, &planted, "", Some(&cfg));
    }
    for (case, src, root) in HAND {
        got.push_str(&format!("=== {case}\n"));
        diagnose(&mut got, src, root, None);
    }
    for (case, src) in LEXICAL {
        let verdict = check_source(src).map_or_else(|e| e.to_string(), |()| "ok".to_owned());
        writeln!(got, "=== {case}\ncheck: {verdict}").expect("writes");
    }
    let want = include_str!("diagnostics.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "diagnostics.txt line {} differs", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
