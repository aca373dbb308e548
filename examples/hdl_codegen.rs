//! The synthesis stage: emit the parameterized Verilog bundles for the
//! paper's three topology presets and write them to the committed
//! `generated_hdl*/` trees.
//!
//! These are the artifacts the paper's toolchain hands to Vivado: the
//! function templates with every memory sized by the customization APIs.
//! The recipes live in `tsn_builder_suite::hdl_presets`;
//! `tests/hdl_drift.rs` re-emits the same three customizations and diffs
//! them against the committed trees, so any template or derivation change
//! that moves the RTL shows up as a reviewable diff here.
//!
//! ```text
//! cargo run --release --example hdl_codegen
//! ```

use std::fs;
use std::path::Path;
use tsn_builder_suite::hdl_presets::HDL_PRESETS;
use tsn_hdl::validate::check_source;
use tsn_types::TsnError;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for preset in HDL_PRESETS {
        let bundle = (preset.bundle)()?;
        let out_dir = Path::new(preset.dir);
        fs::create_dir_all(out_dir)?;
        let mut written = 0;
        for (name, source) in bundle.files() {
            // Belt and braces: every file must re-validate before it is
            // written out.
            check_source(source).map_err(|e| TsnError::InvalidArtifact(format!("{name}: {e}")))?;
            fs::write(out_dir.join(name), source)?;
            written += 1;
        }
        println!(
            "{}/: {written} files, {} total lines",
            preset.dir,
            bundle.total_lines()
        );
    }

    // Show the customization knobs landing in the RTL.
    let linear = (HDL_PRESETS[0].bundle)()?;
    let top = linear.file("tsn_switch_top.v").expect("top module exists");
    let header: Vec<&str> = top.lines().take(18).collect();
    println!(
        "\n--- generated_hdl/tsn_switch_top.v (head) ---\n{}",
        header.join("\n")
    );
    Ok(())
}
