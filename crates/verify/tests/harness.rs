//! End-to-end acceptance of the tsn-verify harness: a deliberately
//! injected bug — an off-by-one queue depth in the derived resource
//! config — must be caught by the cross-layer consistency check,
//! greedily shrunk to a tiny scenario, persisted to a corpus, and
//! reproducible from the reported seed alone.

use tsn_verify::case::ScenarioCase;
use tsn_verify::corpus;
use tsn_verify::oracles;
use tsn_verify::runner::{Runner, Verdict};

/// The buggy customization pipeline: derive a configuration, then size
/// the gate-controller queues one entry short of the derived depth (the
/// classic "dropped the ITP safety margin" off-by-one), and run the same
/// config↔HDL consistency check `hdl-fixpoint` applies: the emitted
/// `gate_ctrl` must provision the *derived* queue depth.
fn buggy_depth_oracle(case: &ScenarioCase) -> Verdict {
    let (_requirements, derived) = match oracles::prepare(case) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let want_depth = derived.resources.queue_depth();
    let mut buggy = derived.resources.clone();
    // The injected bug.
    let off_by_one = want_depth - 1;
    if let Err(e) = buggy.set_queues(off_by_one, buggy.queue_num(), buggy.port_num()) {
        return Verdict::Fail(format!("buggy customization collapsed the config: {e}"));
    }
    let bundle = match tsn_hdl::generate(&buggy) {
        Ok(b) => b,
        Err(e) => return Verdict::Fail(format!("emission failed: {e}")),
    };
    for (name, source) in bundle.files() {
        let modules = match tsn_hdl::parse_modules(source) {
            Ok(m) => m,
            Err(e) => return Verdict::Fail(format!("{name}: parse failed: {e}")),
        };
        let Some(gate) = modules.iter().find(|m| m.name == "gate_ctrl") else {
            continue;
        };
        let got = gate
            .params
            .iter()
            .find(|p| p.name == "QUEUE_DEPTH")
            .map(|p| &p.value);
        if got != Some(&tsn_hdl::Expr::Num(want_depth.max(1).into())) {
            let got = got.map(ToString::to_string).unwrap_or_default();
            return Verdict::Fail(format!(
                "gate_ctrl QUEUE_DEPTH = {got}, derived depth is {want_depth}"
            ));
        }
        return Verdict::Pass;
    }
    Verdict::Fail("emitted bundle lacks gate_ctrl".into())
}

#[test]
fn injected_depth_off_by_one_is_caught_shrunk_persisted_and_reproducible() {
    let dir = std::env::temp_dir().join(format!("tsn-verify-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut runner = Runner::new(16, 0xb06);
    runner.corpus_dir = Some(dir.clone());
    let report = runner.run("buggy-depth", &ScenarioCase::generate, buggy_depth_oracle);

    // Caught: the very first non-discarded case trips the check.
    let failure = report
        .failure
        .as_ref()
        .expect("the injected bug must be caught");
    assert!(
        failure.shrunk.message.contains("QUEUE_DEPTH"),
        "{}",
        failure.shrunk.message
    );

    // Shrunk to a tiny scenario: at most 2 switches and 4 flows.
    let minimal = &failure.shrunk.case;
    assert!(
        minimal.switches <= 2,
        "shrunk to {} switches: {minimal:?}",
        minimal.switches
    );
    assert!(
        minimal.flows <= 4,
        "shrunk to {} flows: {minimal:?}",
        minimal.flows
    );

    // Reproducible: rerunning with `--seed <reported> --cases 1` (what the
    // CLI prints) regenerates the exact original failing case.
    let reproduce = Runner::new(1, failure.seed);
    let rerun = reproduce.run("buggy-depth", &ScenarioCase::generate, buggy_depth_oracle);
    let again = rerun
        .failure
        .expect("reported seed must reproduce the failure");
    assert_eq!(
        format!("{:?}", again.original),
        format!("{:?}", failure.original)
    );

    // Persisted: the corpus now holds the shrunk case; with the bug still
    // present it replays as a regression, with the bug fixed (the real
    // hdl-fixpoint oracle) it replays green.
    let entries = corpus::load_dir(&dir).expect("corpus loads");
    assert_eq!(entries.len(), 1, "one shrunk case persisted");
    let entry = &entries[0].1;
    assert_eq!(entry.oracle, "buggy-depth");
    assert!(!entry.is_seed_pin());
    let err = Runner::replay(entry, &ScenarioCase::generate, buggy_depth_oracle)
        .expect_err("still-present bug must replay as a regression");
    assert!(err.contains("regression reappeared"), "{err}");
    let stats = Runner::replay(entry, &ScenarioCase::generate, |c: &ScenarioCase| {
        oracles::hdl_fixpoint(c)
    })
    .expect("fixed pipeline replays green");
    assert_eq!(stats.executed, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The machine-check pipeline must catch hand-planted defects in
/// otherwise-clean emitted Verilog: a width-mismatched wire, a
/// wrong-DEPTH parameter edit, and an undersized address width. Each
/// planted edit is the kind of one-token slip a manual RTL patch makes.
#[test]
fn planted_hdl_defects_are_caught_by_lint_and_cost() {
    let cfg = tsn_resource::ResourceConfig::new();
    let bundle = tsn_hdl::generate(&cfg).expect("default bundle emits");
    let clean = bundle.concatenated();

    // Sanity: the unedited bundle is lint-clean and cost-exact.
    let modules = tsn_hdl::parse_modules(&clean).expect("clean bundle parses");
    assert!(tsn_hdl::lint_modules(&modules).is_empty());
    tsn_hdl::check_agreement(&cfg, &modules).expect("clean bundle cost agrees");

    // Planted defect 1: narrow a grant bus from QUEUE_NUM (8) to 3 bits.
    let planted = clean.replace("wire [QUEUE_NUM-1:0] p0_grant;", "wire [2:0] p0_grant;");
    assert_ne!(planted, clean, "edit target must exist in the bundle");
    let modules = tsn_hdl::parse_modules(&planted).expect("still parses");
    let findings = tsn_hdl::lint_modules(&modules);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "width-mismatch" && f.message.contains("p0_grant")),
        "planted width mismatch not caught: {findings:?}"
    );

    // Planted defect 2: bump gate_ctrl's QUEUE_DEPTH off the config (12→13).
    let planted = clean.replace("parameter QUEUE_DEPTH = 12", "parameter QUEUE_DEPTH = 13");
    assert_ne!(planted, clean, "edit target must exist in the bundle");
    let modules = tsn_hdl::parse_modules(&planted).expect("still parses");
    let err = tsn_hdl::check_agreement(&cfg, &modules)
        .expect_err("wrong-depth edit must break cost agreement");
    assert!(err.contains("memory map"), "unexpected diagnostic: {err}");

    // Planted defect 3: shrink an address width below its depth.
    let planted = clean.replace("parameter QUEUE_AW = 4", "parameter QUEUE_AW = 2");
    assert_ne!(planted, clean, "edit target must exist in the bundle");
    let modules = tsn_hdl::parse_modules(&planted).expect("still parses");
    let findings = tsn_hdl::lint_modules(&modules);
    assert!(
        findings.iter().any(|f| f.rule == "addr-width"),
        "planted address-width violation not caught: {findings:?}"
    );
}

/// `hdl-fixpoint` compares each module's parsed rendering against the
/// emitted IR, so a one-token edit to a rendered memory depth — text
/// that still lexes, parses and validates — fails the round trip and
/// the diagnostic names the module.
#[test]
fn planted_depth_edit_fails_the_round_trip() {
    let cfg = tsn_resource::ResourceConfig::new();
    let modules = tsn_hdl::modules(&cfg);
    for module in &modules {
        let text = module.render();
        oracles::hdl_round_trip(module, &text).expect("clean rendering round-trips");
    }
    let egress = modules
        .iter()
        .find(|m| m.name == "egress_sched")
        .expect("egress_sched emitted");
    let text = egress.render();
    let planted = text.replace("cbs_tbl [0:CBS_DEPTH-1]", "cbs_tbl [0:CBS_DEPTH-2]");
    assert_ne!(planted, text, "edit target must exist in the rendering");
    tsn_hdl::check_source(&planted).expect("the edit still validates");
    let err =
        oracles::hdl_round_trip(egress, &planted).expect_err("edit must break the round trip");
    assert!(err.starts_with("egress_sched:"), "{err}");
    assert!(err.contains("CBS_DEPTH-2"), "{err}");
}
