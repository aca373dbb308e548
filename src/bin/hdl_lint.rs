//! CI lint gate over every shipped Verilog tree.
//!
//! Parses the committed `generated_hdl*/` trees *and* the freshly
//! emitted preset bundles into the structural IR and runs the full
//! `tsn_hdl::lint` rule set over each whole design. Any finding is
//! printed with its `[rule] module: message` diagnostic and the process
//! exits non-zero — zero findings on shipped output is an invariant,
//! not a warning.
//!
//! ```text
//! cargo run --release -p tsn-builder-suite --bin hdl_lint
//! ```

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use tsn_builder_suite::hdl_presets::HDL_PRESETS;
use tsn_hdl::{lint_modules, parse_modules, LintFinding, Module};

/// Parses every committed `.v` file under `dir` into one design.
fn parse_tree(dir: &Path) -> Result<Vec<Module>, String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map_err(|e| format!("{}: unreadable ({e})", dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().to_string_lossy().into_owned();
            name.ends_with(".v").then_some(name)
        })
        .collect();
    names.sort();
    let mut modules = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("{}: unreadable ({e})", path.display()))?;
        modules.extend(
            parse_modules(&source).map_err(|e| format!("{}: parse failed: {e}", path.display()))?,
        );
    }
    Ok(modules)
}

fn report(label: &str, findings: &[LintFinding]) -> bool {
    if findings.is_empty() {
        println!("  {label}: clean");
        return true;
    }
    println!("  {label}: {} finding(s)", findings.len());
    for finding in findings {
        println!("    {finding}");
    }
    false
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut clean = true;
    println!("HDL structural lint (committed trees + fresh preset bundles)");
    for preset in HDL_PRESETS {
        match parse_tree(&root.join(preset.dir)) {
            Ok(modules) => {
                clean &= report(
                    &format!("{} (committed)", preset.dir),
                    &lint_modules(&modules),
                );
            }
            Err(e) => {
                println!("  {} (committed): {e}", preset.dir);
                clean = false;
            }
        }
        match (preset.bundle)().map_err(|e| e.to_string()).and_then(|b| {
            parse_modules(&b.concatenated()).map_err(|e| format!("parse failed: {e}"))
        }) {
            Ok(modules) => {
                clean &= report(&format!("{} (fresh)", preset.dir), &lint_modules(&modules));
            }
            Err(e) => {
                println!("  {} (fresh): {e}", preset.dir);
                clean = false;
            }
        }
    }
    if clean {
        println!("all shipped HDL lints clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("hdl_lint: findings on shipped output (see above)");
        ExitCode::FAILURE
    }
}
