//! Parameterized Verilog emission — and machine checking — for the
//! TSN-Builder templates.
//!
//! The paper's output artifact is Verilog: five function templates whose
//! table/queue/buffer geometry is injected through the Table II APIs at
//! synthesis time. This crate reproduces that synthesis stage and then
//! closes the loop by parsing, linting and costing its own output:
//!
//! * [`ast`] — the one Verilog IR (modules, parameters, ports, nets,
//!   memories, instances, `always`/`initial` blocks) and its renderer;
//!   the templates build it and the parser returns it, and
//!   `parse_modules(&m.render()) == vec![m]` for every template module;
//! * [`expr`] — the integer expression trees that widths, depths,
//!   parameter defaults and overrides are parsed into once, with checked
//!   evaluation against a parameter environment;
//! * [`templates`] — the five templates plus the shared primitives
//!   (`dpram`, `meta_fifo`) and the `tsn_switch_top` that wires one
//!   Gate Ctrl + Egress Sched per enabled TSN port, as IR
//!   ([`templates::modules`]) and as rendered, validated files
//!   ([`templates::generate`]);
//! * [`validate`] — a lexical checker (balance, identifiers, duplicate
//!   modules) every generated file must pass;
//! * [`parse`] — a structural parser from Verilog text back into the IR:
//!   it lexes the text once, and every parsed name and text item is a
//!   span of one shared copy of the source;
//! * [`text`] — [`Text`], the IR's names and text items, with the
//!   identifiers each one holds (recorded by the parse, so the lints
//!   never lex again);
//! * [`lint`] — structural checks over the IR (width mismatches, unused
//!   ports, undeclared identifiers, address-width/depth violations, …);
//!   shipped bundles must lint clean;
//! * [`cost`] — elaborates the IR into its memory map and register count
//!   and demands bit-exact agreement with `tsn_resource::rtl` (the
//!   `hdl-cost-agreement` oracle).
//!
//! # Example
//!
//! ```
//! use tsn_hdl::templates::generate;
//! use tsn_hdl::{cost, lint, parse_modules};
//! use tsn_resource::ResourceConfig;
//!
//! let cfg = ResourceConfig::new();
//! let bundle = generate(&cfg)?;
//! let modules = parse_modules(&bundle.concatenated())?;
//! assert!(lint::lint_modules(&modules).is_empty());
//! cost::check_agreement(&cfg, &modules).expect("HDL cost matches tsn-resource");
//! # Ok::<(), tsn_types::TsnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cost;
pub mod expr;
pub mod lint;
pub mod parse;
pub mod templates;
pub mod text;
pub mod validate;

pub use ast::{Dir, Instance, Item, Module, Param, Port};
pub use cost::{check_agreement, cost_of, HdlCost, MemoryInstance};
pub use expr::{EvalError, Expr, Range};
pub use lint::{lint_modules, LintFinding};
pub use parse::parse_modules;
pub use templates::{generate, modules, HdlBundle};
pub use text::Text;
pub use validate::check_source;
