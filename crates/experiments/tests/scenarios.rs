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
