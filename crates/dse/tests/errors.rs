//! Error paths of the customization pipeline under infeasible
//! requirements: every rejection is a structured [`TsnError`] surfaced
//! as an `infeasible` answer — never a panic, never a stringly bypass.
//! Oversized requests are refused earlier, by `parse_batch`, with an
//! error naming the query and field, and the `dse` binary refuses a
//! worker count outside `1..=MAX_WORKERS`, a missing worker count and a
//! second request file before reading anything.

use tsn_dse::batch::{MAX_DURATION_US, MAX_HOSTS, MAX_LINKS, MAX_REQUEST_BYTES, MAX_SWITCHES};
use tsn_dse::query::MAX_TS_COUNT;
use tsn_dse::{parse_batch, DseEngine, PlannedQuery, QosQuery, QueryStatus, TopologySpec};
use tsn_types::{SimDuration, TsnError};

fn base_query() -> QosQuery {
    QosQuery {
        label: "q".into(),
        topology: TopologySpec::Named {
            kind: "ring".into(),
            switches: 3,
            hosts: 2,
        },
        ts_count: 4,
        frame_bytes: 64,
        period: SimDuration::from_millis(2),
        seed: 1,
        deadline: SimDuration::from_millis(4),
        jitter: None,
        max_lost: 0,
        duration: SimDuration::from_millis(4),
    }
}

fn expect_plan_infeasible(query: &QosQuery) -> (String, String) {
    match DseEngine::new().answer(query).status {
        QueryStatus::Infeasible { stage, reason } => (stage, reason),
        QueryStatus::Feasible(outcome) => {
            panic!("expected an infeasible answer, got {outcome:?}")
        }
    }
}

#[test]
fn deadline_below_the_analytic_floor_is_a_schedule_infeasible_error() {
    let mut query = base_query();
    query.deadline = SimDuration::from_nanos(500);
    assert!(matches!(
        PlannedQuery::plan(&query),
        Err(TsnError::ScheduleInfeasible(_))
    ));
    let (stage, reason) = expect_plan_infeasible(&query);
    assert_eq!(stage, "plan", "rejected before any simulation");
    assert!(reason.contains("schedule infeasible"), "{reason}");
}

#[test]
fn sub_two_microsecond_jitter_targets_cannot_cap_the_slot() {
    let mut query = base_query();
    // jitter <= 2·slot and the slot is whole microseconds, so any target
    // under 2 µs leaves no valid slot at all.
    query.jitter = Some(SimDuration::from_nanos(1500));
    assert!(matches!(
        PlannedQuery::plan(&query),
        Err(TsnError::ScheduleInfeasible(_))
    ));
    let (stage, reason) = expect_plan_infeasible(&query);
    assert_eq!(stage, "plan");
    assert!(reason.contains("jitter"), "{reason}");
}

#[test]
fn zero_flow_queries_are_invalid_parameters() {
    let mut query = base_query();
    query.ts_count = 0;
    assert!(matches!(
        PlannedQuery::plan(&query),
        Err(TsnError::InvalidParameter { .. })
    ));
    let (stage, reason) = expect_plan_infeasible(&query);
    assert_eq!(stage, "plan");
    assert!(reason.contains("invalid parameter"), "{reason}");
}

#[test]
fn unknown_topology_names_are_invalid_parameters() {
    let mut query = base_query();
    query.topology = TopologySpec::Named {
        kind: "moebius".into(),
        switches: 3,
        hosts: 2,
    };
    match PlannedQuery::plan(&query) {
        Err(TsnError::InvalidParameter { name, reason }) => {
            assert_eq!(name, "topology.kind");
            assert!(reason.contains("moebius"), "{reason}");
        }
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
    let (stage, reason) = expect_plan_infeasible(&query);
    assert_eq!(stage, "plan");
    assert!(reason.contains("moebius"), "{reason}");
}

#[test]
fn preset_validation_propagates_through_the_engine() {
    let mut query = base_query();
    // A two-switch ring: the preset itself rejects it.
    query.topology = TopologySpec::Named {
        kind: "ring".into(),
        switches: 2,
        hosts: 2,
    };
    let (stage, reason) = expect_plan_infeasible(&query);
    assert_eq!(stage, "plan");
    assert!(reason.contains("three switches"), "{reason}");
}

#[test]
fn infeasible_answers_are_cached_like_feasible_ones() {
    let mut query = base_query();
    query.deadline = SimDuration::from_nanos(500);
    let engine = DseEngine::new();
    let first = engine.answer(&query);
    let second = engine.answer(&query);
    assert_eq!(first.status, second.status);
    let stats = engine.stats();
    assert_eq!(stats.answers.misses, 1, "one search for two asks");
    assert_eq!(stats.answers.hits, 1);
}

#[test]
fn ts_count_past_the_vlan_wheel_is_an_invalid_parameter() {
    let mut query = base_query();
    query.ts_count = MAX_TS_COUNT + 1;
    match PlannedQuery::plan(&query) {
        Err(TsnError::InvalidParameter { name, .. }) => assert_eq!(name, "ts_count"),
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

/// A two-query request: a valid query, then one with the given topology,
/// `ts_count` and `duration_us`, so a size error must name `queries[1]`.
fn request(topology: &str, ts_count: u64, duration_us: u64) -> String {
    format!(
        r#"{{"queries": [
          {{"label": "ok", "topology": {{"kind": "ring", "switches": 3, "hosts": 2}},
            "ts_count": 4, "frame_bytes": 64, "period_us": 2000, "seed": 1,
            "deadline_us": 4000, "duration_us": 4000}},
          {{"label": "big", "topology": {topology}, "ts_count": {ts_count},
            "frame_bytes": 64, "period_us": 2000, "seed": 1,
            "deadline_us": 4000, "duration_us": {duration_us}}}
        ]}}"#
    )
}

const RING: &str = r#"{"kind": "ring", "switches": 3, "hosts": 2}"#;

fn inline(switches: u64, hosts: u64, links: u64) -> String {
    let names = |prefix: &str, n: u64| {
        (0..n)
            .map(|i| format!("\"{prefix}{i}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let links = (0..links)
        .map(|_| r#"["s0","h0"]"#)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        r#"{{"switches": [{}], "hosts": [{}], "links": [{links}]}}"#,
        names("s", switches),
        names("h", hosts)
    )
}

fn expect_bound_error(text: &str, field: &str) {
    let e = parse_batch(text).expect_err("oversized request");
    assert!(
        e.starts_with("queries[1]:") && e.contains(&format!("{field:?}")) && e.contains("limit"),
        "{e}"
    );
}

#[test]
fn oversized_queries_are_parse_errors_naming_the_query_and_field() {
    // Both used to take the process down: an allocation failure (exit
    // 134) and a flow generator that ran until it was killed.
    expect_bound_error(
        &request(
            r#"{"kind": "ring", "switches": 100000000000, "hosts": 2}"#,
            4,
            4000,
        ),
        "switches",
    );
    expect_bound_error(&request(RING, 4_000_000_000, 4000), "ts_count");

    let named_hosts = format!(
        r#"{{"kind": "star", "switches": 3, "hosts": {}}}"#,
        MAX_HOSTS + 1
    );
    expect_bound_error(&request(&named_hosts, 4, 4000), "hosts");
    expect_bound_error(
        &request(&inline(MAX_SWITCHES + 1, 2, 1), 4, 4000),
        "switches",
    );
    expect_bound_error(&request(&inline(1, MAX_HOSTS + 1, 1), 4, 4000), "hosts");
    expect_bound_error(&request(&inline(1, 2, MAX_LINKS + 1), 4, 4000), "links");
    expect_bound_error(
        &request(RING, u64::from(MAX_TS_COUNT) + 1, 4000),
        "ts_count",
    );
    expect_bound_error(&request(RING, 4, MAX_DURATION_US + 1), "duration_us");

    // Every limit is inclusive.
    let at_limits = request(
        &inline(MAX_SWITCHES, MAX_HOSTS, MAX_LINKS),
        MAX_TS_COUNT.into(),
        MAX_DURATION_US,
    );
    assert_eq!(parse_batch(&at_limits).expect("at the limits").len(), 2);
}

#[test]
fn overlong_requests_are_refused_before_parsing() {
    let padded = format!(
        "{}{}",
        request(RING, 4, 4000),
        " ".repeat(MAX_REQUEST_BYTES)
    );
    let e = parse_batch(&padded).expect_err("too long");
    assert!(e.starts_with("request:") && e.contains("limit"), "{e}");
}

#[test]
fn out_of_range_worker_counts_exit_2_before_reading_the_request() {
    for workers in ["0", "257", "100000", "many"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dse"))
            .args(["--workers", workers])
            .output()
            .expect("dse runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{workers}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "worker count {workers:?} is not a whole number in 1..=256"
            )),
            "{workers}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{workers}: no response is printed");
    }
}

#[test]
fn argv_errors_exit_2_before_reading_a_request() {
    // Neither file exists, so reading one would print "cannot read".
    for (args, want) in [
        (&["missing-a.json", "missing-b.json"][..], "usage: dse "),
        (&["--workers"][..], "--workers needs a value"),
        (
            &["missing-a.json", "--workers"][..],
            "--workers needs a value",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dse"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("dse runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("cannot read"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no response is printed");
    }
}
