//! Every `scenarios/*.json` must go through the hand-rolled
//! strict JSON layer — and the strictness itself is pinned here: the
//! same documents with trailing garbage or a duplicated key must be
//! rejected, so no committed scenario silently depends on lenient
//! parsing.

use tsn_experiments::json::{parse, Json};

/// The scenario files the repository tracks. `customize --sample` writes
/// a gitignored `sample.json` next to them; when present it is checked
/// like the rest, but a fresh checkout has only these.
const COMMITTED: [&str; 4] = ["dse_batch", "dse_batch_expected", "ring_demo", "star_tas"];

fn committed_scenarios() -> Vec<(String, String)> {
    let dir = format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .filter_map(Result::ok)
        .filter(|entry| entry.path().extension().is_some_and(|x| x == "json"))
        .map(|entry| {
            let path = entry.path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (name, text)
        })
        .collect();
    files.sort();
    for name in COMMITTED {
        assert!(
            files
                .iter()
                .any(|(file, _)| *file == format!("{name}.json")),
            "{name}.json is missing from the committed scenario set {files:?}"
        );
    }
    files
}

#[test]
fn every_committed_scenario_parses_strictly() {
    for (name, text) in committed_scenarios() {
        let root = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            matches!(root, Json::Obj(_)),
            "{name}: scenario roots are objects"
        );
    }
}

#[test]
fn trailing_garbage_after_any_scenario_is_rejected() {
    for (name, text) in committed_scenarios() {
        let garbled = format!("{text} trailing");
        assert!(
            parse(&garbled).is_err(),
            "{name}: trailing garbage was accepted"
        );
    }
}

#[test]
fn duplicating_a_scenario_key_is_rejected() {
    for (name, text) in committed_scenarios() {
        // Duplicate the root object's first member verbatim. Every
        // committed scenario is pretty-printed with one member per line,
        // so line 1 (after the opening brace) is a complete member.
        let mut lines: Vec<&str> = text.lines().collect();
        let first_member = lines[1].trim_end_matches(',').to_owned();
        let duplicated = format!("{first_member},");
        lines.insert(1, &duplicated);
        let garbled = lines.join("\n");
        assert!(
            parse(&garbled).is_err(),
            "{name}: duplicated key {first_member:?} was accepted"
        );
    }
}

/// Runs `customize` on `scenario` written to a temporary file and
/// returns its exit code and standard error.
fn customize(name: &str, scenario: &str) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("tsn-customize-{}-{name}.json", std::process::id()));
    std::fs::write(&path, scenario).expect("scenario written");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_customize"))
        .arg(&path)
        .output()
        .expect("customize runs");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scenario(switches: &str, ts_count: &str) -> String {
    format!(
        r#"{{"topology": {{"kind": "ring", "switches": {switches}, "hosts": 3}},
            "flows": {{"ts_count": {ts_count}}},
            "run": {{"duration_ms": 1, "simulate": false}}}}"#
    )
}

#[test]
fn oversized_scenarios_are_rejected_naming_the_field() {
    // Used to abort allocating 400 GB for the switch list.
    let (code, stderr) = customize("switches", &scenario("100000000000", "4"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("\"switches\" holds 100000000000, above the limit of 1024"),
        "{stderr}"
    );
    // Used to be truncated to 1 flow by an `as u32` cast.
    let (code, stderr) = customize("ts_count", &scenario("6", "4294967297"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("\"ts_count\" holds 4294967297, above the limit of 4000"),
        "{stderr}"
    );
    // Used to panic in debug builds and wrap in release builds inside
    // `DataRate::mbps`.
    for key in ["rc_mbps", "be_mbps"] {
        let text = scenario("6", &format!("4, \"{key}\": 20000000000000"));
        let (code, stderr) = customize(key, &text);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!(
                "\"{key}\" holds 20000000000000, above the limit of 10000"
            )),
            "{stderr}"
        );
    }
    // A scenario within the limits, rates at theirs, still runs.
    let at_limit = r#"4, "rc_mbps": 10000, "be_mbps": 10000"#;
    let (code, stderr) = customize("small", &scenario("6", at_limit));
    assert_eq!(code, Some(0), "{stderr}");
}
