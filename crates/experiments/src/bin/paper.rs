//! Regenerates the paper's tables and figures: `paper [NAME...]` runs
//! the named entries of [`tsn_experiments::paper::ARTIFACTS`], or every
//! entry in table order when no name is given. Each prints its text and
//! writes `results/<name>.json`.
//!
//! An unknown name or any flag prints the usage line and exits 2 before
//! anything runs; a results file that cannot be written exits 1.

use tsn_experiments::paper::ARTIFACTS;
use tsn_experiments::util::dump_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Option<Vec<_>> = if args.is_empty() {
        Some(ARTIFACTS.iter().collect())
    } else {
        args.iter()
            .map(|arg| ARTIFACTS.iter().find(|a| a.name == *arg))
            .collect()
    };
    let Some(chosen) = chosen else {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        eprintln!("usage: paper [NAME...], NAME one of: {}", names.join(" "));
        std::process::exit(2);
    };
    for artifact in chosen {
        if let Err(e) = dump_json(artifact.name, &(artifact.run)()) {
            eprintln!("paper: {e}");
            std::process::exit(1);
        }
    }
}
