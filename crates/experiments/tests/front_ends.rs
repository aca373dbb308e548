//! Garbage input for both JSON front ends, `customize` scenario files
//! and `dse` batches: every field of both schemas gets a wrong type, a
//! negative number, a fraction and (when required) `null`, and every
//! byte-prefix truncation of a committed file is fed in whole. Each must
//! be an error that names its context — the object and field, or the
//! byte offset of a lexical error — and never a panic. `customize`'s
//! parser lives in its binary, so its cases run through the real
//! command line; `dse` batches go through `tsn_dse::parse_batch`.

use std::path::{Path, PathBuf};
use std::process::Command;
use tsn_experiments::json::{parse, Json};

/// What a field holds when it is well-formed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Bool,
    Str,
    Obj,
    Arr,
}

/// One schema field: its path from the root (array indices as digits),
/// its kind, whether it is required, and the error context that must
/// prefix every complaint about it.
struct Field {
    path: &'static [&'static str],
    kind: Kind,
    required: bool,
    context: &'static str,
}

const fn field(
    path: &'static [&'static str],
    kind: Kind,
    required: bool,
    context: &'static str,
) -> Field {
    Field {
        path,
        kind,
        required,
        context,
    }
}

use Kind::{Arr, Bool, Int, Obj, Str};

/// Every field of the scenario schema. The array rows are the inline
/// topology's; they break [`inline_scenario`], every other row breaks
/// `ring_demo.json`.
const SCENARIO: &[Field] = &[
    field(&["topology"], Obj, true, "scenario"),
    field(&["topology", "kind"], Str, true, "topology"),
    field(&["topology", "switches"], Int, true, "topology"),
    field(&["topology", "hosts"], Int, true, "topology"),
    field(&["topology", "switches"], Arr, true, "topology"),
    field(&["topology", "hosts"], Arr, true, "topology"),
    field(&["topology", "links"], Arr, true, "topology"),
    field(&["flows"], Obj, true, "scenario"),
    field(&["flows", "ts_count"], Int, true, "flows"),
    field(&["flows", "frame_bytes"], Int, false, "flows"),
    field(&["flows", "seed"], Int, false, "flows"),
    field(&["flows", "rc_mbps"], Int, false, "flows"),
    field(&["flows", "be_mbps"], Int, false, "flows"),
    field(&["options"], Obj, false, "scenario"),
    field(&["options", "slot_us"], Int, false, "options"),
    field(&["options", "queue_depth"], Int, false, "options"),
    field(&["options", "gate_mode"], Str, false, "options"),
    field(&["options", "aggregate_switch_tbl"], Bool, false, "options"),
    field(&["options", "frame_preemption"], Bool, false, "options"),
    field(&["run"], Obj, false, "scenario"),
    field(&["run", "duration_ms"], Int, false, "run"),
    field(&["run", "simulate"], Bool, false, "run"),
    field(&["run", "emit_hdl"], Str, false, "run"),
];

/// Every field of the batch schema: query 0 of `dse_batch.json` has a
/// named topology, query 3 an inline one.
const BATCH: &[Field] = &[
    field(&["queries"], Arr, true, "request"),
    field(&["queries", "0"], Obj, true, "queries[0]"),
    field(&["queries", "0", "label"], Str, true, "queries[0]"),
    field(&["queries", "0", "topology"], Obj, true, "queries[0]"),
    field(
        &["queries", "0", "topology", "kind"],
        Str,
        true,
        "queries[0]",
    ),
    field(
        &["queries", "0", "topology", "switches"],
        Int,
        true,
        "queries[0]",
    ),
    field(
        &["queries", "0", "topology", "hosts"],
        Int,
        true,
        "queries[0]",
    ),
    field(
        &["queries", "3", "topology", "switches"],
        Arr,
        true,
        "queries[3]",
    ),
    field(
        &["queries", "3", "topology", "hosts"],
        Arr,
        true,
        "queries[3]",
    ),
    field(
        &["queries", "3", "topology", "links"],
        Arr,
        true,
        "queries[3]",
    ),
    field(&["queries", "0", "ts_count"], Int, true, "queries[0]"),
    field(&["queries", "0", "frame_bytes"], Int, true, "queries[0]"),
    field(&["queries", "0", "period_us"], Int, true, "queries[0]"),
    field(&["queries", "0", "seed"], Int, true, "queries[0]"),
    field(&["queries", "0", "deadline_us"], Int, true, "queries[0]"),
    field(&["queries", "0", "jitter_us"], Int, false, "queries[0]"),
    field(&["queries", "0", "max_lost"], Int, false, "queries[0]"),
    field(&["queries", "0", "duration_us"], Int, true, "queries[0]"),
];

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}"))
}

fn read_scenario(name: &str) -> String {
    let path = scenario_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The paper's star preset (`{"kind": "star", "switches": 3, "hosts":
/// 3}`) spelled as inline nodes and links, in the preset's build order.
const INLINE_STAR: &str = r#"{
  "switches": ["core", "sw1", "sw2", "sw3"],
  "hosts": ["host0", "host1", "host2"],
  "links": [["core", "sw1"], ["core", "sw2"], ["core", "sw3"],
            ["host0", "sw1"], ["host1", "sw2"], ["host2", "sw3"]]
}"#;

/// `ring_demo.json` with its topology replaced by [`INLINE_STAR`].
fn inline_scenario() -> Json {
    let root = parse(&read_scenario("ring_demo.json")).expect("parses");
    let star = parse(INLINE_STAR).expect("parses");
    with_member(&root, &["topology"], &star)
}

/// `root` with the member at `path` set to `value` (added if absent).
fn with_member(root: &Json, path: &[&str], value: &Json) -> Json {
    let Some((head, rest)) = path.split_first() else {
        return value.clone();
    };
    match root {
        Json::Obj(members) => {
            let mut members = members.clone();
            match members.iter_mut().find(|(k, _)| k == head) {
                Some((_, member)) => *member = with_member(member, rest, value),
                None => members.push(((*head).to_owned(), with_member(&Json::Null, rest, value))),
            }
            Json::Obj(members)
        }
        Json::Arr(items) => {
            let index: usize = head.parse().expect("array paths index with digits");
            let mut items = items.clone();
            items[index] = with_member(&items[index], rest, value);
            Json::Arr(items)
        }
        _ => panic!("path {path:?} runs through a scalar"),
    }
}

/// A garbage document: what it breaks, its text, and the context and
/// quoted field name its error must carry.
struct Garbage {
    label: String,
    text: String,
    context: String,
    field: String,
}

impl Garbage {
    fn check(&self, error: &str) {
        assert!(
            error.contains(&self.context) && error.contains(&self.field),
            "{}: {error}",
            self.label
        );
    }
}

/// The garbage documents for every field of `schema` over `root`.
fn garbage<'a>(root: &Json, schema: impl IntoIterator<Item = &'a Field>) -> Vec<Garbage> {
    let mut out = Vec::new();
    for f in schema {
        let wrong_type = if f.kind == Bool {
            Json::Str("x".into())
        } else {
            Json::Bool(true)
        };
        let mut values = vec![
            ("wrong type", wrong_type),
            ("negative", Json::Num(-1.0)),
            ("fraction", Json::Num(1.5)),
        ];
        if f.required {
            values.push(("null", Json::Null));
        }
        let name = f.path.last().expect("paths are non-empty");
        // An array element is named by its context, a member by its key.
        let named = if name.parse::<usize>().is_ok() {
            String::new()
        } else {
            format!("{name:?}")
        };
        for (what, value) in values {
            out.push(Garbage {
                label: format!("{} = {what}", f.path.join(".")),
                text: with_member(root, f.path, &value).pretty(),
                context: format!("{}: ", f.context),
                field: named.clone(),
            });
        }
    }
    out
}

/// Every proper byte-prefix of `text`'s document.
fn truncations(text: &str) -> Vec<String> {
    let text = text.trim_end();
    (0..text.len())
        .filter(|&n| text.is_char_boundary(n))
        .map(|n| text[..n].to_owned())
        .collect()
}

/// Runs `customize` once on every document (one file each) and returns
/// each file's stderr line, in order. Every file must fail.
fn customize_errors(tag: &str, documents: &[String]) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("tsn-front-ends-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths: Vec<PathBuf> = documents
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let path = dir.join(format!("{i}.json"));
            std::fs::write(&path, text).expect("document written");
            path
        })
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_customize"))
        .args(&paths)
        .env("TSN_SWEEP_WORKERS", "1")
        .output()
        .expect("customize runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    paths
        .iter()
        .map(|path| {
            let prefix = format!("{}: ", path.display());
            stderr
                .lines()
                .find(|line| line.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{} did not fail:\n{stderr}", path.display()))
                .to_owned()
        })
        .collect()
}

#[test]
fn every_garbage_field_is_an_error_naming_its_context() {
    let (inline, named): (Vec<&Field>, Vec<&Field>) = SCENARIO.iter().partition(|f| f.kind == Arr);
    let ring_demo = parse(&read_scenario("ring_demo.json")).expect("parses");
    let mut cases = garbage(&ring_demo, named);
    cases.extend(garbage(&inline_scenario(), inline));
    let texts: Vec<String> = cases.iter().map(|case| case.text.clone()).collect();
    for (case, error) in cases.iter().zip(customize_errors("fields", &texts)) {
        case.check(&error);
    }

    let batch = parse(&read_scenario("dse_batch.json")).expect("parses");
    for case in garbage(&batch, BATCH) {
        match tsn_dse::parse_batch(&case.text) {
            Ok(_) => panic!("{} was accepted", case.label),
            Err(e) => {
                assert!(e.starts_with(&case.context), "{}: {e}", case.label);
                case.check(&e);
            }
        }
    }
}

#[test]
fn null_on_an_optional_field_means_absent() {
    let base = parse(&read_scenario("dse_batch.json")).expect("parses");
    let plain = tsn_dse::parse_batch(&base.pretty()).expect("the batch parses");
    for f in BATCH.iter().filter(|f| !f.required) {
        let text = with_member(&base, f.path, &Json::Null).pretty();
        let queries = tsn_dse::parse_batch(&text).expect("null reads as absent");
        assert_eq!(queries.len(), plain.len());
    }
}

#[test]
fn every_truncation_of_a_committed_file_is_a_lexical_error() {
    let prefixes = truncations(&read_scenario("ring_demo.json"));
    for (i, error) in customize_errors("prefixes", &prefixes).iter().enumerate() {
        assert!(error.contains("at byte"), "ring_demo.json[..{i}]: {error}");
    }
    for prefix in truncations(&read_scenario("dse_batch.json")) {
        match tsn_dse::parse_batch(&prefix) {
            Ok(_) => panic!("dse_batch.json[..{}] was accepted", prefix.len()),
            Err(e) => assert!(
                e.contains("at byte"),
                "dse_batch.json[..{}]: {e}",
                prefix.len()
            ),
        }
    }
}

/// `base` with the member at `path` spelled as the raw number text
/// `number`, which the printer would never write.
fn with_raw_number(base: &str, path: &[&str], number: &str) -> String {
    const MARK: f64 = 987_654_321.0;
    let root = parse(base).expect("the base document parses");
    let text = with_member(&root, path, &Json::Num(MARK)).pretty();
    assert_eq!(text.matches("987654321").count(), 1, "marker is unique");
    text.replace("987654321", number)
}

#[test]
fn numbers_outside_the_json_grammar_are_lexical_errors() {
    let bad = ["01", "1.", "-", "1e", "00"];
    let scenario = read_scenario("ring_demo.json");
    let texts: Vec<String> = bad
        .iter()
        .map(|n| with_raw_number(&scenario, &["flows", "seed"], n))
        .collect();
    for (n, error) in bad.iter().zip(customize_errors("numbers", &texts)) {
        // One context after the path: nothing stacked around it.
        let (_, message) = error.split_once(".json: ").expect("path prefix");
        let expected = format!("bad scenario file: bad number {n:?} at byte");
        assert!(message.starts_with(&expected), "scenario seed {n}: {error}");
    }

    let batch = read_scenario("dse_batch.json");
    for n in bad {
        let text = with_raw_number(&batch, &["queries", "0", "seed"], n);
        match tsn_dse::parse_batch(&text) {
            Ok(_) => panic!("batch seed {n} was accepted"),
            Err(e) => assert!(
                e.contains(&format!("bad number {n:?} at byte")),
                "batch seed {n}: {e}"
            ),
        }
    }
}

/// Runs `customize` with `args` in `dir` and returns its stdout; it
/// must exit 0.
fn customize_ok(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_customize"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("customize runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}{stderr}");
    stdout
}

#[test]
fn the_committed_ring_scenario_and_the_sample_run_through_customize() {
    let ring = scenario_path("ring_demo.json");
    let stdout = customize_ok(Path::new("."), &[ring.to_str().expect("UTF-8 path")]);
    assert!(stdout.contains("== derived customization =="), "{stdout}");
    assert!(stdout.contains("== simulation (60ms) =="), "{stdout}");

    // The sample template writes `null` for the options it leaves to the
    // derivation, which must read as absent.
    let dir = std::env::temp_dir().join(format!("tsn-sample-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    customize_ok(&dir, &["--sample"]);
    let stdout = customize_ok(&dir, &["scenarios/sample.json"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stdout.contains("== simulation (100ms) =="), "{stdout}");
}

#[test]
fn the_sample_reports_an_unwritable_directory_instead_of_panicking() {
    let dir = std::env::temp_dir().join(format!("tsn-sample-blocked-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("scenarios"), "a plain file, not a directory").expect("blocker");
    let out = Command::new(env!("CARGO_BIN_EXE_customize"))
        .arg("--sample")
        .current_dir(&dir)
        .output()
        .expect("customize runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("customize: cannot write scenarios/sample.json: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fault_sweep_rejects_unknown_arguments_before_sweeping() {
    let dir = std::env::temp_dir().join(format!("tsn-fault-argv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for args in [
        &["--smok"][..],
        &["--smoke", "--smoke"],
        &["smoke"],
        &["--smoke", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("fault_sweep runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, "usage: fault_sweep [--smoke]\n", "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: a sweep started");
    }
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!wrote_results, "no sweep ran, so no results were written");
}

#[test]
fn an_inline_topology_runs_through_customize_like_its_preset() {
    let dir = std::env::temp_dir().join(format!("tsn-inline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = parse(r#"{"duration_ms": 10, "simulate": true}"#).expect("parses");
    let base = with_member(&inline_scenario(), &["run"], &run);
    let named = parse(r#"{"kind": "star", "switches": 3, "hosts": 3}"#).expect("parses");
    let mut stdouts = Vec::new();
    for (name, scenario) in [
        ("inline.json", base.clone()),
        ("named.json", with_member(&base, &["topology"], &named)),
    ] {
        std::fs::write(dir.join(name), scenario.pretty()).expect("scenario written");
        stdouts.push(customize_ok(&dir, &[name]));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        stdouts[0].contains("== derived customization =="),
        "{}",
        stdouts[0]
    );
    assert!(
        stdouts[0].contains("== simulation (10ms) =="),
        "{}",
        stdouts[0]
    );
    assert_eq!(stdouts[0], stdouts[1], "the inline star is the star preset");
}

#[test]
fn customize_rejects_unknown_flags_before_running_a_scenario() {
    let dir = std::env::temp_dir().join(format!("tsn-customize-argv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ring = scenario_path("ring_demo.json");
    let ring = ring.to_str().expect("UTF-8 path");
    for args in [
        &["--smaple"][..],
        &[ring, "--verbose"],
        &["--sample", ring],
        &["--sample", "--sample"],
        &["-h"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_customize"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("customize runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr, "usage: customize <scenario.json>... | customize --sample\n",
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: a scenario ran");
    }
    let wrote_sample = dir.join("scenarios").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!wrote_sample, "no sample was written");
}
