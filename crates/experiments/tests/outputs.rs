//! The paper artifacts and `fault_sweep` against their committed
//! outputs under `verify/outputs/`: `<name>.txt` is an artifact's
//! stdout and `<name>.json` its `results/<name>.json`, both byte for
//! byte (`fault_sweep_smoke.*` are `fault_sweep --smoke`'s). A change
//! that means to move an artifact regenerates its two files with
//! `paper NAME` (or `fault_sweep [--smoke]`) and says why.
//!
//! Also the `paper` command line: unknown names and flags, an
//! unwritable `results/`, and a serial sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tsn_experiments::paper::ARTIFACTS;

fn golden(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../verify/outputs")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A fresh, empty temporary directory for one run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsn-outputs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `binary` with `args` in `dir`, with `TSN_SWEEP_WORKERS` set to
/// `workers` when given.
fn run(binary: &str, args: &[&str], dir: &Path, workers: Option<&str>) -> Output {
    let mut command = Command::new(binary);
    command.args(args).current_dir(dir);
    if let Some(workers) = workers {
        command.env("TSN_SWEEP_WORKERS", workers);
    }
    command.output().expect("binary runs")
}

/// Requires a successful run whose stdout is the committed `<stem>.txt`
/// of each of `texts` in order, and whose `results/` holds exactly one
/// `<name>.json` per `(name, stem)` of `results`, equal to the committed
/// `<stem>.json`. A difference names the first file it is in.
fn assert_outputs(out: &Output, dir: &Path, texts: &[&str], results: &[(&str, &str)]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{texts:?}: {stderr}");
    let mut rest = out.stdout.as_slice();
    for stem in texts {
        let text = golden(&format!("{stem}.txt"));
        assert!(
            rest.starts_with(&text),
            "stdout differs from verify/outputs/{stem}.txt; from there it reads:\n{}",
            String::from_utf8_lossy(rest)
        );
        rest = &rest[text.len()..];
    }
    assert!(
        rest.is_empty(),
        "stdout goes on after verify/outputs/{}.txt:\n{}",
        texts.last().expect("a text"),
        String::from_utf8_lossy(rest)
    );

    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results written")
        .map(|entry| {
            let entry = entry.expect("results entry");
            entry.file_name().to_string_lossy().into_owned()
        })
        .collect();
    written.sort_unstable();
    let mut expected: Vec<String> = results.iter().map(|(n, _)| format!("{n}.json")).collect();
    expected.sort_unstable();
    assert_eq!(written, expected, "results files");
    for (name, stem) in results {
        let json = std::fs::read(dir.join("results").join(format!("{name}.json"))).expect("read");
        assert!(
            json == golden(&format!("{stem}.json")),
            "results/{name}.json differs from verify/outputs/{stem}.json"
        );
    }
}

#[test]
fn every_paper_artifact_matches_its_committed_output() {
    let dir = scratch("paper");
    let out = run(env!("CARGO_BIN_EXE_paper"), &[], &dir, None);
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let results: Vec<(&str, &str)> = names.iter().map(|&n| (n, n)).collect();
    assert_outputs(&out, &dir, &names, &results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_serial_sweep_matches_the_committed_output() {
    let dir = scratch("serial");
    let out = run(env!("CARGO_BIN_EXE_paper"), &["fig7a"], &dir, Some("1"));
    assert_outputs(&out, &dir, &["fig7a"], &[("fig7a", "fig7a")]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_sweep_matches_its_committed_outputs() {
    for (args, stem) in [
        (&[][..], "fault_sweep"),
        (&["--smoke"], "fault_sweep_smoke"),
    ] {
        let dir = scratch(stem);
        let out = run(env!("CARGO_BIN_EXE_fault_sweep"), args, &dir, None);
        assert_outputs(&out, &dir, &[stem], &[("fault_sweep", stem)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn paper_rejects_unknown_names_and_flags_before_running() {
    let dir = scratch("argv");
    for args in [
        &["--all"][..],
        &["table4"],
        &["fig7a", "-h"],
        &["fig7a", "fig7e"],
        &["FIG2"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_paper"), args, &dir, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: paper [NAME...]"), "{stderr}");
        for artifact in &ARTIFACTS {
            assert!(stderr.contains(artifact.name), "{args:?}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?}: an artifact ran");
    }
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!wrote_results, "nothing ran, so no results were written");
}

#[test]
fn paper_fails_when_it_cannot_write_its_results() {
    let dir = scratch("blocked");
    std::fs::write(dir.join("results"), "a plain file, not a directory").expect("blocker");
    let out = run(env!("CARGO_BIN_EXE_paper"), &["table3"], &dir, None);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("paper: cannot write results/table3.json: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
