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

use crate::ast::{text_idents, Dir, Item, Module, Param};
use crate::expr::{Env, Expr, Range};
use crate::validate::is_identifier;
use std::collections::{BTreeMap, BTreeSet};
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
    overrides: &[(String, Expr)],
    parent_env: &Env,
) -> Env<'a> {
    let mut env = Env::new();
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
pub(crate) fn width_of(range: Option<&Range>, env: &Env) -> Result<i64, String> {
    range.map_or(Ok(1), |r| r.width(env))
}

/// Widths of every port, wire and reg of `module`, where resolvable in
/// `env`. Scalar declarations have width 1.
fn net_widths<'a>(module: &'a Module, env: &Env) -> BTreeMap<&'a str, i64> {
    let nets = module.items.iter().filter_map(|item| match item {
        Item::Wire { range, name } | Item::Reg { range, name } => Some((name, range)),
        _ => None,
    });
    let ports = module.ports.iter().map(|p| (&p.name, &p.range));
    ports
        .chain(nets)
        .filter_map(|(name, range)| Some((name.as_str(), width_of(range.as_ref(), env).ok()?)))
        .collect()
}

/// Every name declared in a module's scope: ports, nets, memories,
/// parameters and localparams.
fn declared_names(module: &Module) -> BTreeSet<&str> {
    let items = module.items.iter().filter_map(|item| match item {
        Item::Wire { name, .. }
        | Item::Reg { name, .. }
        | Item::Memory { name, .. }
        | Item::Localparam { name, .. } => Some(name.as_str()),
        _ => None,
    });
    module
        .ports
        .iter()
        .map(|p| p.name.as_str())
        .chain(module.params.iter().map(|p| p.name.as_str()))
        .chain(items)
        .collect()
}

/// Bit width of a connection expression, where statically known.
///
/// Only two shapes resolve: a plain identifier (looked up in
/// `net_widths`) and a sized literal like `4'b0101` (the size prefix).
/// Everything else — slices, concatenations, arithmetic, unsized
/// literals — returns `None`: Verilog implicitly resizes those, so the
/// width lint must not judge them.
fn connection_width(text: &str, net_widths: &BTreeMap<&str, i64>) -> Option<i64> {
    if is_identifier(text) {
        return net_widths.get(text).copied();
    }
    let literal = text.starts_with(|c: char| c.is_ascii_digit())
        && text
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'');
    let (size, _) = text.split_once('\'').filter(|_| literal)?;
    size.parse::<i64>().ok().filter(|&s| s > 0)
}

fn duplicates<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut seen = BTreeSet::new();
    let mut dups = Vec::new();
    for name in names {
        if !seen.insert(name) && !dups.contains(&name) {
            dups.push(name);
        }
    }
    dups
}

/// Lints a whole design (every module of a bundle together).
///
/// Cross-module rules (port binding, width agreement) require the
/// instantiated modules to be present in `modules`; an instantiation of
/// a module that is not is itself a finding (`unknown-module`) — except
/// that nothing in the shipped bundles triggers it.
#[must_use]
pub fn lint_modules(modules: &[Module]) -> Vec<LintFinding> {
    let by_name: BTreeMap<&str, &Module> = modules.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut findings = Vec::new();
    for module in modules {
        lint_module(module, &by_name, &mut findings);
    }
    findings
}

fn lint_module(
    module: &Module,
    by_name: &BTreeMap<&str, &Module>,
    findings: &mut Vec<LintFinding>,
) {
    let push = |findings: &mut Vec<LintFinding>, rule: &'static str, message: String| {
        findings.push(LintFinding {
            module: module.name.clone(),
            rule,
            message,
        });
    };

    for name in duplicates(module.params.iter().map(|p| p.name.as_str())) {
        push(
            findings,
            "duplicate-parameter",
            format!("parameter {name} declared more than once"),
        );
    }
    for name in duplicates(module.ports.iter().map(|p| p.name.as_str())) {
        push(
            findings,
            "duplicate-port",
            format!("port {name} declared more than once"),
        );
    }

    let refs = module.references();
    for port in &module.ports {
        if !refs.contains(port.name.as_str()) {
            let what = if port.dir == Dir::Input {
                "is never read"
            } else {
                "is never driven"
            };
            push(
                findings,
                "unused-port",
                format!("{} port {} {what} in the module body", port.dir, port.name),
            );
        }
    }

    let env = default_env(module);
    for (aw_name, aw, depth_name, depth) in pair_violations(&module.params, &env) {
        let words = 1i64 << aw;
        push(
            findings,
            "addr-width",
            format!("{aw_name}={aw} addresses only {words} words but {depth_name}={depth}"),
        );
    }

    let widths = net_widths(module, &env);
    let scope = declared_names(module);

    for inst in module.instances() {
        for name in duplicates(inst.params.iter().map(|(n, _)| n.as_str())) {
            push(
                findings,
                "duplicate-parameter",
                format!("instance {} overrides parameter {name} twice", inst.name),
            );
        }
        for name in duplicates(inst.connections.iter().map(|(n, _)| n.as_str())) {
            push(
                findings,
                "duplicate-port",
                format!("instance {} connects port {name} twice", inst.name),
            );
        }

        // Every identifier mentioned in override/connection expressions
        // must exist in the parent scope.
        let overrides = inst.params.iter().map(|(_, value)| {
            let mut idents = Vec::new();
            value.idents(&mut idents);
            (value.to_string(), idents)
        });
        let connections = inst.connections.iter().map(|(_, text)| {
            let mut idents = Vec::new();
            text_idents(text, &mut idents);
            (text.clone(), idents)
        });
        for (text, idents) in overrides.chain(connections) {
            let mut seen = BTreeSet::new();
            let undeclared = idents.into_iter().filter(|name| !scope.contains(name));
            for ident in undeclared.filter(|name| seen.insert(*name)) {
                push(
                    findings,
                    "undeclared-identifier",
                    format!(
                        "instance {} references undeclared identifier {ident} in {text:?}",
                        inst.name
                    ),
                );
            }
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
            let named = module
                .params
                .iter()
                .map(|p| (p.name.as_str(), &p.value))
                .chain(module.localparams())
                .find(|(n, _)| env.get(n) == Some(&literal));
            if let Some((name, _)) = named {
                push(
                    findings,
                    "magic-number",
                    format!(
                        "instance {} hardcodes {pname}={literal} where parameter {name} holds that value",
                        inst.name
                    ),
                );
            }
        }

        let Some(child) = by_name.get(inst.module.as_str()) else {
            push(
                findings,
                "unknown-module",
                format!(
                    "instance {} references unknown module {}",
                    inst.name, inst.module
                ),
            );
            continue;
        };

        for (pname, _) in &inst.params {
            if !child.params.iter().any(|p| &p.name == pname) {
                push(
                    findings,
                    "unknown-parameter",
                    format!(
                        "instance {} overrides parameter {pname} that {} does not declare",
                        inst.name, child.name
                    ),
                );
            }
        }
        for (cname, _) in &inst.connections {
            if child.find_port(cname).is_none() {
                push(
                    findings,
                    "unknown-port",
                    format!(
                        "instance {} connects port {cname} that {} does not declare",
                        inst.name, child.name
                    ),
                );
            }
        }
        for port in &child.ports {
            if !inst.connections.iter().any(|(n, _)| n == &port.name) {
                push(
                    findings,
                    "unconnected-port",
                    format!(
                        "instance {} leaves port {} of {} unconnected",
                        inst.name, port.name, child.name
                    ),
                );
            }
        }

        let child_env = instance_env(child, &inst.params, &env);
        for (aw_name, aw, depth_name, depth) in pair_violations(&child.params, &child_env) {
            push(
                findings,
                "addr-width",
                format!(
                    "instance {} resolves {aw_name}={aw} ({} words) against {depth_name}={depth} in {}",
                    inst.name,
                    1i64 << aw,
                    child.name
                ),
            );
        }

        // Width agreement, where both sides resolve statically. Slices,
        // expressions and unsized literals are implicitly resized by
        // Verilog and stay unjudged (see connection_width).
        for (cname, value) in &inst.connections {
            let Some(port) = child.find_port(cname) else {
                continue;
            };
            let port_width = width_of(port.range.as_ref(), &child_env).ok();
            let (Some(pw), Some(cw)) = (port_width, connection_width(value, &widths)) else {
                continue;
            };
            if pw != cw {
                push(
                    findings,
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

/// `X_AW`/`X_DEPTH` (and `ADDR_WIDTH`/`DEPTH`) parameter pairs must
/// satisfy `2^aw >= depth`, else the address bus cannot reach every
/// memory word.
fn pair_violations<'a>(params: &'a [Param], env: &Env) -> Vec<(&'a str, i64, String, i64)> {
    let mut out = Vec::new();
    for Param { name, .. } in params {
        let depth_name = if name == "ADDR_WIDTH" {
            "DEPTH".to_owned()
        } else if let Some(prefix) = name.strip_suffix("_AW") {
            format!("{prefix}_DEPTH")
        } else {
            continue;
        };
        let (Some(&aw), Some(&depth)) = (env.get(name.as_str()), env.get(depth_name.as_str()))
        else {
            continue;
        };
        if !(0..63).contains(&aw) || depth < 0 {
            continue;
        }
        if (1i64 << aw) < depth {
            out.push((name.as_str(), aw, depth_name, depth));
        }
    }
    out
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
        let nets = BTreeMap::from([("data_bus", 64)]);
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
