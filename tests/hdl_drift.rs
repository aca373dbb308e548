//! HDL drift detection: re-emit the paper's three committed
//! customizations and diff them byte-for-byte against the checked-in
//! `generated_hdl*/` trees.
//!
//! Any change to the Verilog templates or the derivation pipeline that
//! moves the RTL fails here until `cargo run --release --example
//! hdl_codegen` regenerates the trees — making every RTL change a
//! reviewable diff instead of a silent one.

use std::fs;
use std::path::Path;
use tsn_builder_suite::hdl_presets::{HdlPreset, HDL_PRESETS};

fn assert_tree_matches(preset: &HdlPreset) {
    let bundle = (preset.bundle)().expect("committed recipe derives and emits");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(preset.dir);
    assert!(
        dir.is_dir(),
        "{}: committed tree missing — run `cargo run --release --example hdl_codegen`",
        preset.dir
    );

    // Every emitted file, testbench included, must be committed
    // byte-identically…
    let mut compared = 0;
    for (name, source) in bundle.files() {
        let path = dir.join(name);
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: unreadable ({e})", path.display()));
        assert!(
            committed == *source,
            "{}/{name}: emitted RTL drifted from the committed file — \
             regenerate with `cargo run --release --example hdl_codegen` \
             and review the diff",
            preset.dir
        );
        compared += 1;
    }
    assert!(
        compared >= 8,
        "{}: only {compared} files compared",
        preset.dir
    );

    // …and the committed tree must not carry stale extras the bundle no
    // longer emits.
    for entry in fs::read_dir(&dir).expect("tree readable") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if !name.ends_with(".v") {
            continue;
        }
        assert!(
            bundle.file(&name).is_some(),
            "{}/{name}: committed file is no longer emitted by the bundle",
            preset.dir
        );
    }
}

#[test]
fn linear_tree_matches_committed_rtl() {
    assert_tree_matches(&HDL_PRESETS[0]);
}

#[test]
fn star_tree_matches_committed_rtl() {
    assert_tree_matches(&HDL_PRESETS[1]);
}

#[test]
fn ring_tree_matches_committed_rtl() {
    assert_tree_matches(&HDL_PRESETS[2]);
}

/// The three trees really are three different customizations: the top
/// module's port count matches the paper's Table III column per preset.
#[test]
fn trees_cover_the_three_port_columns() {
    let ports: Vec<String> = HDL_PRESETS
        .iter()
        .map(|p| {
            let bundle = (p.bundle)().expect("emits");
            let top = bundle.file("tsn_switch_top.v").expect("top exists");
            top.lines()
                .find(|l| l.contains("parameter PORT_NUM"))
                .expect("PORT_NUM parameter present")
                .trim()
                .to_owned()
        })
        .collect();
    assert!(ports[0].contains("= 2"), "linear: {}", ports[0]);
    assert!(ports[1].contains("= 3"), "star: {}", ports[1]);
    assert!(ports[2].contains("= 1"), "ring: {}", ports[2]);
}
