//! Structural lints over the Verilog IR.
//!
//! The rules encode what a synthesis front-end would reject or warn
//! about in the narrow dialect `tsn-hdl` emits: width mismatches on
//! port connections, unused ports, undeclared identifiers in
//! instantiation expressions, duplicate parameters/ports, address
//! widths too small for their memory depths, unknown modules/ports in
//! instantiations, and magic numbers where a generated parameter
//! exists. The invariant — enforced by tests and CI — is that every
//! shipped bundle lints clean; a template edit that breaks geometry
//! shows up here before it reaches synthesis.
//!
//! [`lint_modules`] is a whole-design check: pass it every module of a
//! bundle at once so instantiations can be bound against the modules
//! they reference. Widths, depths and parameters are evaluated from the
//! parsed [`crate::expr::Expr`] trees; connection text is only scanned
//! for identifiers.

use crate::ast::{Dir, Item, Module, Param};
use crate::expr::{Env, EvalError, Expr, Range};
use crate::text::Text;
use crate::validate::is_identifier;
use std::fmt;

/// One lint diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Module the finding is anchored in.
    pub module: String,
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.module, self.message)
    }
}

/// A module's parameter defaults, then its localparams, as a value
/// environment.
#[must_use]
pub fn default_env(module: &Module) -> Env<'_> {
    instance_env(module, &[], &Env::new())
}

/// Resolves a module's parameters under an instantiation's `overrides`:
/// each override is evaluated in the *parent* environment, remaining
/// parameters fall back to their defaults and localparams follow, left
/// to right, so each may reference earlier ones. Values that do not
/// evaluate (they may reference enclosing-scope names) are simply absent
/// from the result — width checks that need them degrade to
/// "unresolved" rather than false findings.
#[must_use]
pub fn instance_env<'a>(
    module: &'a Module,
    overrides: &[(Text, Expr)],
    parent_env: &Env,
) -> Env<'a> {
    let mut env = Env::with_capacity(module.params.len());
    for Param { name, value } in &module.params {
        let value = match overrides.iter().find(|(n, _)| n == name) {
            Some((_, over)) => over.eval(parent_env),
            None => value.eval(&env),
        };
        if let Ok(v) = value {
            env.insert(name, v);
        }
    }
    for (name, value) in module.localparams() {
        if let Ok(v) = value.eval(&env) {
            env.insert(name, v);
        }
    }
    env
}

/// Bit width of an optional range: 1 when absent.
pub(crate) fn width_of<'a>(range: Option<&'a Range>, env: &Env) -> Result<i64, EvalError<'a>> {
    range.map_or(Ok(1), |r| r.width(env))
}

/// A name's length and end bytes, packed. Equal names have equal
/// sketches, and the names of one module scope rarely share one, so a
/// scan over a scope's names compares sketches and reads bytes only on
/// a match: no sort, no search and few mispredicted branches.
fn sketch(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let first = u64::from(bytes.first().copied().unwrap_or(0));
    let last = u64::from(bytes.last().copied().unwrap_or(0));
    name.len() as u64 | first << 48 | last << 56
}

/// The bit a [`sketch`] sets in a 64-bit filter of a name set.
fn filter_bit(sketch: u64) -> u64 {
    1 << (sketch.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

/// `(sketch, name, width)` of every port, wire and reg of `module` whose
/// width resolves in `env`, in declaration order. Scalar declarations
/// have width 1.
fn net_widths<'a>(module: &'a Module, env: &Env) -> Vec<(u64, &'a str, i64)> {
    let nets = module.items.iter().filter_map(|item| match item {
        Item::Wire { range, name } | Item::Reg { range, name } => Some((name, range)),
        _ => None,
    });
    let ports = module.ports.iter().map(|p| (&p.name, &p.range));
    ports
        .chain(nets)
        .filter_map(|(name, range)| {
            Some((
                sketch(name),
                name.as_str(),
                width_of(range.as_ref(), env).ok()?,
            ))
        })
        .collect()
}

/// The width of the last declaration of `name` in [`net_widths`].
fn width_named(widths: &[(u64, &str, i64)], name: &str) -> Option<i64> {
    let key = sketch(name);
    let mut named = widths.iter().rev();
    named
        .find(|&&(k, n, _)| k == key && n == name)
        .map(|&(.., width)| width)
}

/// `(sketch, name)` of every name declared in a module's scope: ports,
/// nets, memories, parameters and localparams.
fn declared_names(module: &Module) -> Vec<(u64, &str)> {
    let items = module.items.iter().filter_map(|item| match item {
        Item::Wire { name, .. }
        | Item::Reg { name, .. }
        | Item::Memory { name, .. }
        | Item::Localparam { name, .. } => Some(name),
        _ => None,
    });
    let ports = module.ports.iter().map(|p| &p.name);
    let names = ports
        .chain(module.params.iter().map(|p| &p.name))
        .chain(items);
    names.map(|name| (sketch(name), name.as_str())).collect()
}

/// Bit width of a connection expression, where statically known.
///
/// Only two shapes resolve: a plain identifier (looked up in
/// `net_widths`) and a sized literal like `4'b0101` (the size prefix).
/// Everything else — slices, concatenations, arithmetic, unsized
/// literals — returns `None`: Verilog implicitly resizes those, so the
/// width lint must not judge them.
fn connection_width(text: &str, net_widths: &[(u64, &str, i64)]) -> Option<i64> {
    if is_identifier(text) {
        return width_named(net_widths, text);
    }
    let literal = text.starts_with(|c: char| c.is_ascii_digit())
        && text
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'');
    let (size, _) = text.split_once('\'').filter(|_| literal)?;
    size.parse::<i64>().ok().filter(|&s| s > 0)
}

/// Each name `items` holds more than once, at its second occurrence.
fn duplicates<'a, T>(
    items: &'a [T],
    name: impl Fn(&'a T) -> &'a Text,
) -> impl Iterator<Item = &'a Text> {
    items.iter().enumerate().filter_map(move |(i, item)| {
        let n = name(item);
        let earlier = items[..i].iter().filter(|e| name(e) == n).count();
        (earlier == 1).then_some(n)
    })
}

/// Lints a whole design (every module of a bundle together).
///
/// Cross-module rules (port binding, width agreement) require the
/// instantiated modules to be present in `modules`; an instantiation of
/// a module that is not is itself a finding (`unknown-module`) — except
/// that nothing in the shipped bundles triggers it.
///
/// Identifiers come from [`Text::idents`], so a parsed design is not
/// lexed again, and a message is formatted only for a finding.
#[must_use]
pub fn lint_modules(modules: &[Module]) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    for module in modules {
        lint_module(module, modules, &mut findings);
    }
    findings
}

fn lint_module(module: &Module, modules: &[Module], findings: &mut Vec<LintFinding>) {
    let mut push = |rule: &'static str, message: String| {
        findings.push(LintFinding {
            module: module.name.to_string(),
            rule,
            message,
        });
    };

    for name in duplicates(&module.params, |p| &p.name) {
        let message = format!("parameter {name} declared more than once");
        push("duplicate-parameter", message);
    }
    for name in duplicates(&module.ports, |p| &p.name) {
        push(
            "duplicate-port",
            format!("port {name} declared more than once"),
        );
    }

    // Each port is marked once the body references its name. Most body
    // words are no port's name, and the ports' sketch filter turns those
    // away before any port is compared.
    let mut ports: Vec<(u64, &str, bool)> = module
        .ports
        .iter()
        .map(|p| (sketch(&p.name), p.name.as_str(), false))
        .collect();
    let filter = ports
        .iter()
        .fold(0, |bits, &(key, ..)| bits | filter_bit(key));
    module.references(|word| {
        let key = sketch(word);
        if filter & filter_bit(key) != 0 {
            for port in ports
                .iter_mut()
                .filter(|&&mut (k, n, _)| k == key && n == word)
            {
                port.2 = true;
            }
        }
    });
    let unused = module
        .ports
        .iter()
        .zip(&ports)
        .filter(|(_, &(.., used))| !used);
    for (port, _) in unused {
        let what = if port.dir == Dir::Input {
            "is never read"
        } else {
            "is never driven"
        };
        let message = format!("{} port {} {what} in the module body", port.dir, port.name);
        push("unused-port", message);
    }

    let env = default_env(module);
    pair_violations(&module.params, &env, |aw_name, aw, depth_name, depth| {
        let words = 1i64 << aw;
        let message =
            format!("{aw_name}={aw} addresses only {words} words but {depth_name}={depth}");
        push("addr-width", message);
    });

    if module.instances().next().is_none() {
        return;
    }
    let widths = net_widths(module, &env);
    let scope = declared_names(module);
    // Built on the first literal override the magic-number rule meets.
    let mut named = None;
    let mut bound = Vec::new();

    for inst in module.instances() {
        for name in duplicates(&inst.params, |(n, _)| n) {
            let message = format!("instance {} overrides parameter {name} twice", inst.name);
            push("duplicate-parameter", message);
        }
        for name in duplicates(&inst.connections, |(n, _)| n) {
            let message = format!("instance {} connects port {name} twice", inst.name);
            push("duplicate-port", message);
        }

        // Every identifier mentioned in override/connection expressions
        // must exist in the parent scope; each text reports a name once.
        let mut undeclared = |text: &dyn fmt::Debug, ident: &str, reported: &mut Vec<String>| {
            let key = sketch(ident);
            let declared = scope.iter().any(|&(k, name)| k == key && name == ident);
            if declared || reported.iter().any(|r| r == ident) {
                return;
            }
            reported.push(ident.to_owned());
            let message = format!(
                "instance {} references undeclared identifier {ident} in {text:?}",
                inst.name
            );
            push("undeclared-identifier", message);
        };
        for (_, value) in &inst.params {
            let mut reported = Vec::new();
            value.idents(&mut |ident| undeclared(&Shown(value), ident, &mut reported));
        }
        for (_, text) in &inst.connections {
            let mut reported = Vec::new();
            text.idents()
                .for_each(|ident| undeclared(text, ident, &mut reported));
        }

        // Magic numbers: a literal override where the module already has
        // a parameter carrying that value.
        for (pname, value) in &inst.params {
            let Expr::Num(literal) = *value else {
                continue;
            };
            if literal <= 1 {
                continue; // 0/1 literals are idiomatic, not magic
            }
            let named = named.get_or_insert_with(|| named_values(module, &env));
            if let Some((name, _)) = named.iter().find(|&&(_, v)| v == literal) {
                push(
                    "magic-number",
                    format!(
                        "instance {} hardcodes {pname}={literal} where parameter {name} holds that value",
                        inst.name
                    ),
                );
            }
        }

        // The last module of that name, as in a map built in order.
        let Some(child) = modules.iter().rfind(|m| m.name == inst.module) else {
            push(
                "unknown-module",
                format!(
                    "instance {} references unknown module {}",
                    inst.name, inst.module
                ),
            );
            continue;
        };

        for (pname, _) in &inst.params {
            if !child.params.iter().any(|p| p.name == *pname) {
                push(
                    "unknown-parameter",
                    format!(
                        "instance {} overrides parameter {pname} that {} does not declare",
                        inst.name, child.name
                    ),
                );
            }
        }
        // Each connection's port of the child (the first of that name):
        // the unknown-port, unconnected-port and width rules read it.
        bound.clear();
        bound.extend(
            inst.connections
                .iter()
                .map(|(cname, _)| child.ports.iter().position(|p| p.name == *cname)),
        );
        for ((cname, _), _) in inst
            .connections
            .iter()
            .zip(&bound)
            .filter(|(_, p)| p.is_none())
        {
            push(
                "unknown-port",
                format!(
                    "instance {} connects port {cname} that {} does not declare",
                    inst.name, child.name
                ),
            );
        }
        for (i, port) in child.ports.iter().enumerate() {
            // A port bound by index is connected; any other may still
            // share its name with an earlier, bound port.
            let connected =
                bound.contains(&Some(i)) || inst.connections.iter().any(|(n, _)| *n == port.name);
            if !connected {
                push(
                    "unconnected-port",
                    format!(
                        "instance {} leaves port {} of {} unconnected",
                        inst.name, port.name, child.name
                    ),
                );
            }
        }

        let child_env = instance_env(child, &inst.params, &env);
        pair_violations(
            &child.params,
            &child_env,
            |aw_name, aw, depth_name, depth| {
                push(
                "addr-width",
                format!(
                    "instance {} resolves {aw_name}={aw} ({} words) against {depth_name}={depth} in {}",
                    inst.name,
                    1i64 << aw,
                    child.name
                ),
            );
            },
        );

        // Width agreement, where both sides resolve statically. Slices,
        // expressions and unsized literals are implicitly resized by
        // Verilog and stay unjudged (see connection_width).
        for ((cname, value), port) in inst.connections.iter().zip(&bound) {
            let Some(port) = port.map(|i| &child.ports[i]) else {
                continue;
            };
            let port_width = width_of(port.range.as_ref(), &child_env).ok();
            let (Some(pw), Some(cw)) = (port_width, connection_width(value, &widths)) else {
                continue;
            };
            if pw != cw {
                push(
                    "width-mismatch",
                    format!(
                        "instance {}: port {cname} of {} is {pw} bit(s) but connection {value:?} is {cw} bit(s)",
                        inst.name, child.name
                    ),
                );
            }
        }
    }
}

/// The parameters, then the localparams, of `module` with their values
/// in `env`, in declaration order.
fn named_values<'a>(module: &'a Module, env: &Env) -> Vec<(&'a str, i64)> {
    let params = module.params.iter().map(|p| p.name.as_str());
    let names = params.chain(module.localparams().map(|(name, _)| name));
    names
        .filter_map(|name| Some((name, env.get(name)?)))
        .collect()
}

/// Debug-prints a value as the string of its `Display`.
struct Shown<'a, T>(&'a T);

impl<T: fmt::Display> fmt::Debug for Shown<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.to_string(), f)
    }
}

/// `X_AW`/`X_DEPTH` (and `ADDR_WIDTH`/`DEPTH`) parameter pairs must
/// satisfy `2^aw >= depth`, else the address bus cannot reach every
/// memory word. Reports `(aw name, aw, depth name, depth)` per
/// violation.
fn pair_violations<'a>(
    params: &'a [Param],
    env: &Env,
    mut report: impl FnMut(&'a str, i64, &str, i64),
) {
    for Param { name, .. } in params {
        let depth = if name == "ADDR_WIDTH" {
            env.iter().find(|&(n, _)| n == "DEPTH")
        } else if let Some(prefix) = name.strip_suffix("_AW") {
            env.iter()
                .find(|(n, _)| n.strip_prefix(prefix) == Some("_DEPTH"))
        } else {
            continue;
        };
        let (Some(aw), Some((depth_name, depth))) = (env.get(name), depth) else {
            continue;
        };
        if !(0..63).contains(&aw) || depth < 0 {
            continue;
        }
        if (1i64 << aw) < depth {
            report(name, aw, depth_name, depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_modules;
    use crate::templates::generate;
    use tsn_resource::ResourceConfig;

    fn lint_src(src: &str) -> Vec<LintFinding> {
        lint_modules(&parse_modules(src).expect("parses"))
    }

    fn rules(findings: &[LintFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn shipped_default_bundle_lints_clean() {
        let bundle = generate(&ResourceConfig::new()).expect("generates");
        let modules = parse_modules(&bundle.concatenated()).expect("parses");
        let findings = lint_modules(&modules);
        assert!(
            findings.is_empty(),
            "shipped output must lint clean, got:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn flags_width_mismatch_on_plain_identifier_connections() {
        let src = "module child ( input [7:0] d );\n\
                   wire probe;\nassign probe = d[0];\nendmodule\n\
                   module parent ( input clk );\n\
                   wire [3:0] narrow;\n\
                   assign narrow = {4{clk}};\n\
                   child u0 ( .d(narrow) );\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["width-mismatch"]);
        assert!(findings[0].message.contains("8 bit(s)"));
        assert!(findings[0].message.contains("4 bit(s)"));
    }

    #[test]
    fn width_checks_skip_slices_and_expressions() {
        let src = "module child ( input [7:0] d, input v );\n\
                   wire probe;\nassign probe = d[0] & v;\nendmodule\n\
                   module parent ( input clk );\n\
                   wire [31:0] bus;\n\
                   wire a;\n\
                   assign bus = 0;\n\
                   assign a = clk;\n\
                   child u0 ( .d(bus[9:2]), .v(a & clk) );\nendmodule\n";
        assert!(lint_src(src).is_empty());
    }

    #[test]
    fn sized_literals_participate_in_width_checks() {
        let src = "module child ( input [3:0] d );\n\
                   wire probe;\nassign probe = d[0];\nendmodule\n\
                   module parent ( input clk );\n\
                   wire probe2;\nassign probe2 = clk;\n\
                   child u0 ( .d(8'hff) );\nendmodule\n";
        assert_eq!(rules(&lint_src(src)), vec!["width-mismatch"]);
    }

    #[test]
    fn width_checks_honour_parameter_overrides() {
        let src = "module child #(\n parameter W = 8\n) ( input [W-1:0] d );\n\
                   wire probe;\nassign probe = d[0];\nendmodule\n\
                   module parent #(\n parameter BUS = 16\n) ( input clk );\n\
                   wire [BUS-1:0] bus;\n\
                   assign bus = {BUS{clk}};\n\
                   child #(.W(BUS)) u0 ( .d(bus) );\nendmodule\n";
        assert!(lint_src(src).is_empty());
        // Without the override the default (8) mismatches the 16-bit bus.
        let bad = src.replace("#(.W(BUS)) ", "");
        assert_eq!(rules(&lint_src(&bad)), vec!["width-mismatch"]);
    }

    #[test]
    fn flags_unused_ports() {
        let src = "module m ( input clk, input unused_in, output unused_out );\n\
                   wire x;\nassign x = clk;\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["unused-port", "unused-port"]);
        assert!(findings[0].message.contains("never read"));
        assert!(findings[1].message.contains("never driven"));
    }

    #[test]
    fn flags_undeclared_identifiers_in_connections() {
        let src = "module child ( input d );\n\
                   wire probe;\nassign probe = d;\nendmodule\n\
                   module parent ( input clk );\n\
                   wire probe2;\nassign probe2 = clk;\n\
                   child u0 ( .d(ghost_net) );\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["undeclared-identifier"]);
        assert!(findings[0].message.contains("ghost_net"));
    }

    #[test]
    fn flags_duplicate_parameters_and_ports() {
        let src = "module m #(\n parameter W = 8,\n parameter W = 9\n) ( input clk, input clk );\n\
                   wire x;\nassign x = clk & W;\nendmodule\n";
        let r = rules(&lint_src(src));
        assert!(r.contains(&"duplicate-parameter"));
        assert!(r.contains(&"duplicate-port"));
    }

    #[test]
    fn flags_unknown_module_parameter_and_port() {
        let src = "module child #(\n parameter W = 8\n) ( input [W-1:0] d );\n\
                   wire probe;\nassign probe = d[0];\nendmodule\n\
                   module parent ( input clk );\n\
                   wire [7:0] b;\n\
                   assign b = {8{clk}};\n\
                   child u0 ( .d(b), .extra(clk) );\n\
                   child #(.NOPE(3)) u1 ( .d(b) );\n\
                   mystery u2 ( .q(b) );\nendmodule\n";
        let r = rules(&lint_src(src));
        assert!(r.contains(&"unknown-port"));
        assert!(r.contains(&"unknown-parameter"));
        assert!(r.contains(&"unknown-module"));
    }

    #[test]
    fn flags_unconnected_ports() {
        let src = "module child ( input a, input b );\n\
                   wire probe;\nassign probe = a & b;\nendmodule\n\
                   module parent ( input clk );\n\
                   child u0 ( .a(clk) );\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["unconnected-port"]);
        assert!(findings[0].message.contains("port b"));
    }

    #[test]
    fn flags_magic_numbers_shadowing_parameters() {
        let src = "module child #(\n parameter DEPTH = 4\n) ( input clk );\n\
                   wire probe;\nassign probe = clk;\nendmodule\n\
                   module parent #(\n parameter QUEUE_DEPTH = 12\n) ( input clk );\n\
                   child #(.DEPTH(12)) u0 ( .clk(clk) );\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["magic-number"]);
        assert!(findings[0].message.contains("QUEUE_DEPTH"));
    }

    #[test]
    fn connection_widths_resolve_only_safe_shapes() {
        let nets = [(sketch("data_bus"), "data_bus", 64)];
        assert_eq!(connection_width("data_bus", &nets), Some(64));
        assert_eq!(connection_width("4'b0101", &nets), Some(4));
        assert_eq!(connection_width("1'b0", &nets), Some(1));
        // Implicitly resized shapes stay unjudged.
        assert_eq!(connection_width("data_bus[9:0]", &nets), None);
        assert_eq!(connection_width("0", &nets), None);
        assert_eq!(connection_width("a&b", &nets), None);
        assert_eq!(connection_width("{a,b}", &nets), None);
        assert_eq!(connection_width("4'b01 + x", &nets), None);
        assert_eq!(connection_width("missing", &nets), None);
    }

    #[test]
    fn flags_addr_width_too_small_for_depth() {
        let src =
            "module m #(\n parameter DEPTH = 16,\n parameter ADDR_WIDTH = 3\n) ( input clk );\n\
                   wire x;\nassign x = clk;\nendmodule\n";
        let findings = lint_src(src);
        assert_eq!(rules(&findings), vec!["addr-width"]);
        assert!(findings[0].message.contains("ADDR_WIDTH=3"));
        // The prefixed form is checked too, including through overrides.
        let src2 = "module fifo #(\n parameter DEPTH = 4,\n parameter ADDR_WIDTH = 2\n) ( input clk );\n\
                    wire probe;\nassign probe = clk;\nendmodule\n\
                    module parent #(\n parameter Q_DEPTH = 64,\n parameter Q_AW = 6\n) ( input clk );\n\
                    fifo #(.DEPTH(Q_DEPTH), .ADDR_WIDTH(2)) u0 ( .clk(clk) );\nendmodule\n";
        let r = rules(&lint_src(src2));
        assert!(r.contains(&"addr-width"));
    }
}
