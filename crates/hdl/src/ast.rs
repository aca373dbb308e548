//! The one Verilog IR: the templates build it, [`Module::render`] prints
//! it and [`crate::parse_modules`] reads it back.
//!
//! The IR models exactly what the TSN-Builder templates need: modules
//! with parameters, ports, nets, memory arrays, module instances and
//! behavioural `always`/`initial` blocks. Widths, depths, parameter
//! defaults and overrides are [`Expr`] trees; everything the checks do
//! not evaluate (assign right-hand sides, connection expressions, block
//! bodies, comments) stays text. Rendering and parsing are inverses:
//! `parse_modules(&m.render()) == vec![m]`.

use crate::expr::{Expr, Range};
use crate::parse::{lex, KEYWORDS};
use crate::validate::is_identifier;
use core::fmt;
use std::collections::BTreeSet;

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `output reg`
    OutputReg,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Input => f.write_str("input"),
            Dir::Output => f.write_str("output"),
            Dir::OutputReg => f.write_str("output reg"),
        }
    }
}

/// A module parameter with a default value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Parameter name (conventionally SCREAMING_SNAKE_CASE).
    pub name: String,
    /// Default value.
    pub value: Expr,
}

/// `None` for a 1-bit net, else `[width-1:0]`.
fn bits(width: Expr) -> Option<Range> {
    (width != Expr::Num(1)).then(|| Range::bits(width))
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Port {
    /// Direction.
    pub dir: Dir,
    /// The `[msb:lsb]` range; `None` means a scalar port.
    pub range: Option<Range>,
    /// Port name.
    pub name: String,
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    /// Instantiated module name.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// `#(.NAME(expr))` parameter overrides, in order.
    pub params: Vec<(String, Expr)>,
    /// `.port(expr)` connections, in order; the expression is text.
    pub connections: Vec<(String, String)>,
}

impl Instance {
    /// An instance with no overrides and no connections.
    #[must_use]
    pub fn new(module: impl Into<String>, name: impl Into<String>) -> Self {
        Instance {
            module: module.into(),
            name: name.into(),
            params: Vec::new(),
            connections: Vec::new(),
        }
    }

    /// Overrides each child parameter with the parent parameter named
    /// next to it.
    #[must_use]
    pub fn params(mut self, overrides: &[(&str, &str)]) -> Self {
        let pairs = overrides.iter().map(|&(p, v)| (p.to_owned(), v.into()));
        self.params.extend(pairs);
        self
    }

    /// Connects each child port to the expression next to it.
    #[must_use]
    pub fn connect(mut self, connections: &[(&str, &str)]) -> Self {
        let pairs = connections
            .iter()
            .map(|&(p, e)| (p.to_owned(), e.to_owned()));
        self.connections.extend(pairs);
        self
    }
}

/// One item in a module body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Item {
    /// `// comment`
    Comment(String),
    /// `wire [msb:lsb] name;`
    Wire {
        /// Width range; `None` means a 1-bit net.
        range: Option<Range>,
        /// Net name.
        name: String,
    },
    /// `reg [msb:lsb] name;`
    Reg {
        /// Width range; `None` means a 1-bit register.
        range: Option<Range>,
        /// Register name.
        name: String,
    },
    /// `reg [msb:lsb] name [0:depth-1];` — a BRAM-inferrable memory.
    Memory {
        /// Element width range; `None` means 1-bit elements.
        range: Option<Range>,
        /// Depth range (e.g. `[0:DEPTH-1]`).
        depth: Range,
        /// Memory name.
        name: String,
    },
    /// `assign lhs = rhs;`
    Assign {
        /// Left-hand side text.
        lhs: String,
        /// Right-hand side text.
        rhs: String,
    },
    /// `localparam name = value;`
    Localparam {
        /// Name.
        name: String,
        /// Value.
        value: Expr,
    },
    /// An `always @(sensitivity) begin … end` block; `body` lines are
    /// emitted verbatim, indented.
    Always {
        /// Sensitivity list, e.g. `posedge clk`.
        sensitivity: String,
        /// Statement lines.
        body: Vec<String>,
    },
    /// An `initial begin … end` block (testbenches).
    Initial {
        /// Statement lines.
        body: Vec<String>,
    },
    /// A verbatim statement (e.g. `always #4 clk = ~clk;`). Still
    /// subject to the validator.
    Raw(String),
    /// A module instance.
    Instance(Instance),
}

impl From<Instance> for Item {
    fn from(inst: Instance) -> Self {
        Item::Instance(inst)
    }
}

/// A Verilog module.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Ports.
    pub ports: Vec<Port>,
    /// Body items.
    pub items: Vec<Item>,
}

impl Module {
    /// Creates an empty module.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            params: Vec::new(),
            ports: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Adds a parameter.
    pub fn param(&mut self, name: impl Into<String>, value: impl Into<Expr>) -> &mut Self {
        self.params.push(Param {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Adds a port `width` bits wide (`1` renders without a range).
    fn port(&mut self, dir: Dir, width: impl Into<Expr>, name: &str) -> &mut Self {
        let (range, name) = (bits(width.into()), name.to_owned());
        self.ports.push(Port { dir, range, name });
        self
    }

    /// Adds an `input` port.
    pub fn input(&mut self, width: impl Into<Expr>, name: &str) -> &mut Self {
        self.port(Dir::Input, width, name)
    }

    /// Adds an `output` port.
    pub fn output(&mut self, width: impl Into<Expr>, name: &str) -> &mut Self {
        self.port(Dir::Output, width, name)
    }

    /// Adds an `output reg` port.
    pub fn output_reg(&mut self, width: impl Into<Expr>, name: &str) -> &mut Self {
        self.port(Dir::OutputReg, width, name)
    }

    /// Adds a body item.
    pub fn item(&mut self, item: impl Into<Item>) -> &mut Self {
        self.items.push(item.into());
        self
    }

    /// Adds a `wire` of `width` bits.
    pub fn wire(&mut self, width: impl Into<Expr>, name: impl Into<String>) -> &mut Self {
        let (range, name) = (bits(width.into()), name.into());
        self.item(Item::Wire { range, name })
    }

    /// Adds a `reg` of `width` bits.
    pub fn reg(&mut self, width: impl Into<Expr>, name: &str) -> &mut Self {
        let (range, name) = (bits(width.into()), name.to_owned());
        self.item(Item::Reg { range, name })
    }

    /// Adds a memory of `depth` words, each `width` bits.
    pub fn memory(&mut self, width: impl Into<Expr>, depth: &str, name: &str) -> &mut Self {
        self.item(Item::Memory {
            range: Some(Range::bits(width.into())),
            depth: Range::words(depth.into()),
            name: name.to_owned(),
        })
    }

    /// Adds `assign lhs = rhs;`.
    pub fn assign(&mut self, lhs: &str, rhs: impl Into<String>) -> &mut Self {
        let (lhs, rhs) = (lhs.to_owned(), rhs.into());
        self.item(Item::Assign { lhs, rhs })
    }

    /// Adds `// text`.
    pub fn comment(&mut self, text: impl Into<String>) -> &mut Self {
        self.item(Item::Comment(text.into()))
    }

    /// Adds `always @(posedge clk) begin … end` around `body`.
    pub fn clocked(&mut self, body: &[&str]) -> &mut Self {
        self.item(Item::Always {
            sensitivity: "posedge clk".to_owned(),
            body: body.iter().map(|&line| line.to_owned()).collect(),
        })
    }

    /// Looks a port up by name.
    #[must_use]
    pub(crate) fn find_port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// The module's instances, in body order.
    pub(crate) fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.items.iter().filter_map(|item| match item {
            Item::Instance(inst) => Some(inst),
            _ => None,
        })
    }

    /// `localparam` `(name, value)` pairs, in body order.
    pub(crate) fn localparams(&self) -> impl Iterator<Item = (&str, &Expr)> {
        self.items.iter().filter_map(|item| match item {
            Item::Localparam { name, value } => Some((name.as_str(), value)),
            _ => None,
        })
    }

    /// Every non-keyword identifier the body mentions: declared names,
    /// expression identifiers, instance and port names, and the words of
    /// every text item (comments excluded). The unused-port lint checks
    /// ports against this set.
    #[must_use]
    pub(crate) fn references(&self) -> BTreeSet<&str> {
        let (mut texts, mut exprs): (Vec<&String>, Vec<&Expr>) = (Vec::new(), Vec::new());
        for item in &self.items {
            match item {
                Item::Comment(_) => {}
                Item::Wire { range, name } | Item::Reg { range, name } => {
                    texts.push(name);
                    exprs.extend(range.iter().flat_map(|r| [&r.msb, &r.lsb]));
                }
                Item::Memory { range, depth, name } => {
                    texts.push(name);
                    let ranges = range.iter().chain([depth]);
                    exprs.extend(ranges.flat_map(|r| [&r.msb, &r.lsb]));
                }
                Item::Assign { lhs, rhs } => texts.extend([lhs, rhs]),
                Item::Localparam { name, value } => {
                    texts.push(name);
                    exprs.push(value);
                }
                Item::Always { sensitivity, body } => {
                    texts.extend(body.iter().chain([sensitivity]))
                }
                Item::Initial { body } => texts.extend(body),
                Item::Raw(line) => texts.push(line),
                Item::Instance(inst) => {
                    texts.extend([&inst.module, &inst.name]);
                    texts.extend(inst.connections.iter().flat_map(|(p, e)| [p, e]));
                    texts.extend(inst.params.iter().map(|(p, _)| p));
                    exprs.extend(inst.params.iter().map(|(_, v)| v));
                }
            }
        }
        let mut refs = BTreeSet::new();
        texts
            .into_iter()
            .for_each(|text| text_idents(text, &mut refs));
        exprs.into_iter().for_each(|expr| expr.idents(&mut refs));
        refs
    }

    /// Renders the module as Verilog source.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Adds every non-keyword identifier of a text item to `out`, skipping
/// comments and literals. Text that is one identifier, like most names
/// and connections, is not lexed.
pub(crate) fn text_idents<'a>(text: &'a str, out: &mut impl Extend<&'a str>) {
    if is_identifier(text) {
        out.extend([text].into_iter().filter(|w| !KEYWORDS.contains(w)));
        return;
    }
    let words = lex(text).filter(|tok| tok.is_ident() && !KEYWORDS.contains(&tok.text));
    out.extend(words.map(|tok| tok.text));
}

/// An optional range, printed as ` [msb:lsb]` or nothing.
struct Ranged<'a>(&'a Option<Range>);

impl fmt::Display for Ranged<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(range) => write!(f, " [{range}]"),
            None => Ok(()),
        }
    }
}

/// Writes `items` separated by `sep`.
fn join<T>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    sep: &str,
    mut line: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        line(f, item)?;
    }
    Ok(())
}

fn body(f: &mut fmt::Formatter<'_>, lines: &[String]) -> fmt::Result {
    for line in lines {
        writeln!(f, "        {line}")?;
    }
    f.write_str("    end\n")
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Item::Comment(text) => writeln!(f, "    // {text}"),
            Item::Wire { range, name } => writeln!(f, "    wire{} {name};", Ranged(range)),
            Item::Reg { range, name } => writeln!(f, "    reg{} {name};", Ranged(range)),
            Item::Memory { range, depth, name } => {
                writeln!(f, "    reg{} {name} [{depth}];", Ranged(range))
            }
            Item::Assign { lhs, rhs } => writeln!(f, "    assign {lhs} = {rhs};"),
            Item::Localparam { name, value } => writeln!(f, "    localparam {name} = {value};"),
            Item::Always {
                sensitivity,
                body: lines,
            } => {
                writeln!(f, "    always @({sensitivity}) begin")?;
                body(f, lines)
            }
            Item::Initial { body: lines } => {
                f.write_str("    initial begin\n")?;
                body(f, lines)
            }
            Item::Raw(line) => writeln!(f, "    {line}"),
            Item::Instance(inst) => {
                write!(f, "    {}", inst.module)?;
                if !inst.params.is_empty() {
                    f.write_str(" #(")?;
                    join(f, &inst.params, ", ", |f, (p, v)| write!(f, ".{p}({v})"))?;
                    f.write_str(")")?;
                }
                writeln!(f, " {} (", inst.name)?;
                join(f, &inst.connections, ",\n", |f, (port, net)| {
                    write!(f, "        .{port}({net})")
                })?;
                f.write_str("\n    );\n")
            }
        }
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module {}", self.name)?;
        if !self.params.is_empty() {
            f.write_str(" #(\n")?;
            join(f, &self.params, ",\n", |f, p| {
                write!(f, "    parameter {} = {}", p.name, p.value)
            })?;
            f.write_str("\n)")?;
        }
        f.write_str(" (\n")?;
        join(f, &self.ports, ",\n", |f, p| {
            write!(f, "    {}{} {}", p.dir, Ranged(&p.range), p.name)
        })?;
        f.write_str("\n);\n")?;
        for item in &self.items {
            write!(f, "{item}")?;
        }
        f.write_str("endmodule\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_modules;

    fn demo() -> Module {
        let mut m = Module::new("demo");
        m.param("WIDTH", 32)
            .param("DEPTH", 16)
            .input(1, "clk")
            .input("WIDTH", "din")
            .output_reg("WIDTH", "dout")
            .comment("demo memory")
            .memory("WIDTH", "DEPTH", "mem")
            .clocked(&["dout <= mem[0];"]);
        m
    }

    #[test]
    fn renders_module_skeleton() {
        let text = demo().render();
        assert!(text.starts_with("module demo #(\n"));
        assert!(text.contains("parameter WIDTH = 32"));
        assert!(text.contains("input clk"));
        assert!(text.contains("input [WIDTH-1:0] din"));
        assert!(text.contains("output reg [WIDTH-1:0] dout"));
        assert!(text.contains("reg [WIDTH-1:0] mem [0:DEPTH-1];"));
        assert!(text.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn always_block_renders_body() {
        let text = demo().render();
        assert!(text.contains("always @(posedge clk) begin"));
        assert!(text.contains("dout <= mem[0];"));
    }

    #[test]
    fn instance_with_params_and_connections() {
        let mut m = Module::new("top");
        m.param("DEPTH", 12).input(1, "clk").item(
            Instance::new("fifo", "u_fifo0")
                .params(&[("DEPTH", "DEPTH")])
                .connect(&[("clk", "clk"), ("din", "8'h00")]),
        );
        let text = m.render();
        assert!(text.contains("fifo #(.DEPTH(DEPTH)) u_fifo0 ("));
        assert!(text.contains(".clk(clk)"));
        assert!(text.contains(".din(8'h00)"));
    }

    #[test]
    fn scalar_ports_have_no_range() {
        let mut m = Module::new("t");
        m.input(1, "rst_n");
        assert!(m.render().contains("input rst_n\n"));
        assert!(!m.render().contains("[1-1:0]"));
    }

    #[test]
    fn every_item_kind_round_trips() {
        let mut m = demo();
        let aw = crate::parse::tests::parse_expr("DEPTH*2-WIDTH%3").expect("parses");
        m.param("AW", aw)
            .wire(Expr::from("AW") + 1, "w")
            .reg(1, "r")
            .item(Item::Localparam {
                name: "LP".into(),
                value: Expr::Neg(Box::new(Expr::from("AW") - 1)),
            })
            .assign("w", "r ? {AW{1'b0}} : din[3:0]")
            .item(Item::Initial {
                body: vec![
                    String::new(),
                    "  x = 1; // c".into(),
                    "if (a) begin".into(),
                    "end".into(),
                ],
            })
            .item(Item::Raw("always #4 clk = ~clk;".into()))
            .comment("")
            .item(
                Instance::new("demo", "u0")
                    .params(&[("WIDTH", "AW")])
                    .connect(&[("clk", "clk"), ("din", "{din[7:0], din[15:8]}")]),
            );
        let text = m.render();
        assert_eq!(parse_modules(&text).expect("parses"), vec![m]);
    }

    #[test]
    fn references_cover_text_and_expressions_but_not_comments() {
        let mut m = demo();
        m.comment("ghost")
            .assign("a", "b & c // ghost2")
            .wire(Expr::from("W2") + 1, "w");
        let refs = m.references();
        for word in ["a", "b", "c", "w", "W2", "mem", "dout", "clk"] {
            assert!(refs.contains(word), "{word}");
        }
        for word in ["ghost", "ghost2", "posedge", "din"] {
            assert!(!refs.contains(word), "{word}");
        }
    }
}
