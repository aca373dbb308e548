//! Machine-check of every shipped Verilog tree: the committed
//! `generated_hdl*/` files and the freshly emitted preset bundles must
//! all parse into the structural IR and produce **zero** lint findings.
//!
//! `tests/hdl_drift.rs` already pins the trees byte-for-byte; this test
//! pins their *meaning* — if a template change ever introduces a width
//! mismatch, an unused port, an undeclared identifier or an undersized
//! address width, it fails here with the lint diagnostics even though
//! the byte-level drift test was dutifully regenerated.

use std::fs;
use std::path::Path;
use tsn_builder_suite::hdl_presets::{HdlPreset, HDL_PRESETS};
use tsn_hdl::{lint_modules, parse_modules, Module};

/// Parses every committed `.v` file of a preset's tree, one module per
/// file, and returns the whole design.
fn parse_committed_tree(preset: &HdlPreset) -> Vec<Module> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(preset.dir);
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: unreadable ({e})", preset.dir))
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".v"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 8,
        "{}: only {} files",
        preset.dir,
        names.len()
    );

    let mut modules = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let source = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable ({e})", path.display()));
        let parsed = parse_modules(&source)
            .unwrap_or_else(|e| panic!("{}/{name}: fails to parse: {e}", preset.dir));
        assert_eq!(
            parsed.len(),
            1,
            "{}/{name}: expected one module per committed file",
            preset.dir
        );
        modules.extend(parsed);
    }
    modules
}

#[test]
fn committed_trees_parse_and_lint_clean() {
    for preset in HDL_PRESETS {
        let modules = parse_committed_tree(preset);
        let findings = lint_modules(&modules);
        assert!(
            findings.is_empty(),
            "{}: committed tree has lint findings:\n{}",
            preset.dir,
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn fresh_preset_bundles_parse_and_lint_clean() {
    for preset in HDL_PRESETS {
        let bundle = (preset.bundle)().expect("preset recipe derives and emits");
        let modules = parse_modules(&bundle.concatenated())
            .unwrap_or_else(|e| panic!("{}: fresh bundle fails to parse: {e}", preset.dir));
        assert!(
            modules.len() >= 9,
            "{}: fresh bundle has only {} modules",
            preset.dir,
            modules.len()
        );
        let findings = lint_modules(&modules);
        assert!(
            findings.is_empty(),
            "{}: fresh bundle has lint findings:\n{}",
            preset.dir,
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The committed trees really carry the structural geometry the drift
/// test pins by bytes: every tree has the five function templates plus
/// the shared primitives and the top module.
#[test]
fn committed_trees_contain_the_template_modules() {
    for preset in HDL_PRESETS {
        let modules = parse_committed_tree(preset);
        for want in [
            "dpram",
            "meta_fifo",
            "time_sync",
            "packet_switch",
            "ingress_filter",
            "gate_ctrl",
            "egress_sched",
            "tsn_switch_top",
        ] {
            assert!(
                modules.iter().any(|m| m.name == want),
                "{}: module {want} missing from the committed tree",
                preset.dir
            );
        }
    }
}

/// The one IR drops nothing the emitter writes: every committed `.v`
/// file renders back from its parse byte for byte.
#[test]
fn committed_trees_round_trip_byte_for_byte() {
    let mut files = 0;
    for preset in HDL_PRESETS {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(preset.dir);
        for entry in fs::read_dir(&dir).expect("tree readable") {
            let path = entry.expect("entry").path();
            if path.extension().is_none_or(|x| x != "v") {
                continue;
            }
            let text = fs::read_to_string(&path).expect("file readable");
            let modules = parse_modules(&text)
                .unwrap_or_else(|e| panic!("{}: fails to parse: {e}", path.display()));
            let rendered: String = modules.iter().map(Module::render).collect();
            assert!(
                rendered == text,
                "{}: render(parse(text)) differs from the committed text",
                path.display()
            );
            files += 1;
        }
    }
    assert_eq!(files, 27, "the three committed trees hold 27 Verilog files");
}
