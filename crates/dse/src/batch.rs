//! The JSON batch interface of the `dse` binary.
//!
//! A request is one strict-JSON object `{"queries": [...]}` (see
//! [`parse_batch`] for the per-query schema); the response is a
//! pretty-printed object with one result per query, in request order,
//! plus the engine's cache statistics. Every layer is deterministic —
//! the worker pool returns results in input order and each
//! [`tsn_sim::PlanCache`] computes every distinct key exactly once — so
//! the response bytes are identical for any worker count (pinned by
//! `tests/golden_batch.rs` against `scenarios/dse_batch_expected.json`).

use tsn_experiments::json::{parse, Json};
use tsn_experiments::limits;
use tsn_sim::sweep::run_sweep;
use tsn_sim::CacheStats;
use tsn_types::SimDuration;

use crate::query::{QosQuery, TopologySpec, MAX_TS_COUNT};
use crate::search::{DseEngine, QueryResult, QueryStatus, KNOBS};

/// Longest request [`parse_batch`] accepts, in bytes.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;
/// Most links an inline topology may list.
pub const MAX_LINKS: u64 = 16384;
/// Switch and host counts (named count or inline names), `ts_count` and
/// `duration_us` share their limits with `customize` scenario files.
/// Every candidate simulation of the search runs the whole window.
pub use tsn_experiments::limits::{MAX_DURATION_US, MAX_HOSTS, MAX_SWITCHES};

/// Context for parse errors: the query index (or "request" for the top
/// level) plus the complaint.
fn err(at: &str, message: impl AsRef<str>) -> String {
    format!("{at}: {}", message.as_ref())
}

fn require<'a>(obj: &'a Json, at: &str, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| err(at, format!("missing required field {key:?}")))
}

fn u64_field(obj: &Json, at: &str, key: &str) -> Result<u64, String> {
    require(obj, at, key)?
        .as_u64()
        .ok_or_else(|| err(at, format!("field {key:?} must be a non-negative integer")))
}

fn u32_field(obj: &Json, at: &str, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(obj, at, key)?)
        .map_err(|_| err(at, format!("field {key:?} does not fit in 32 bits")))
}

/// `count` checked against `max`: requests are bounded before anything is
/// built from them.
fn within(at: &str, key: &str, count: u64, max: u64) -> Result<u64, String> {
    limits::within(key, count, max).map_err(|e| err(at, e))
}

fn micros_field(obj: &Json, at: &str, key: &str) -> Result<SimDuration, String> {
    Ok(SimDuration::from_micros(u64_field(obj, at, key)?))
}

fn str_field(obj: &Json, at: &str, key: &str) -> Result<String, String> {
    Ok(require(obj, at, key)?
        .as_str()
        .ok_or_else(|| err(at, format!("field {key:?} must be a string")))?
        .to_owned())
}

fn reject_unknown(obj: &Json, at: &str, allowed: &[&str]) -> Result<(), String> {
    for key in obj.keys() {
        if !allowed.contains(&key) {
            return Err(err(
                at,
                format!("unknown field {key:?} (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_topology(value: &Json, at: &str) -> Result<TopologySpec, String> {
    if !matches!(value, Json::Obj(_)) {
        return Err(err(at, "field \"topology\" must be an object"));
    }
    if value.get("kind").is_some() {
        reject_unknown(value, at, &["kind", "switches", "hosts"])?;
        let count = |key: &str, max: u64| -> Result<usize, String> {
            Ok(within(at, key, u64_field(value, at, key)?, max)? as usize)
        };
        return Ok(TopologySpec::Named {
            kind: str_field(value, at, "kind")?,
            switches: count("switches", MAX_SWITCHES)?,
            hosts: count("hosts", MAX_HOSTS)?,
        });
    }
    reject_unknown(value, at, &["switches", "hosts", "links"])?;
    let names = |key: &str, max: u64| -> Result<Vec<String>, String> {
        let Some(Json::Arr(items)) = value.get(key) else {
            return Err(err(
                at,
                format!("inline topology field {key:?} must be an array"),
            ));
        };
        within(at, key, items.len() as u64, max)?;
        items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| err(at, format!("{key:?} entries must be strings")))
            })
            .collect()
    };
    let Some(Json::Arr(raw_links)) = value.get("links") else {
        return Err(err(at, "inline topology field \"links\" must be an array"));
    };
    within(at, "links", raw_links.len() as u64, MAX_LINKS)?;
    let mut links = Vec::with_capacity(raw_links.len());
    for link in raw_links {
        let Json::Arr(pair) = link else {
            return Err(err(at, "each link must be a two-element array"));
        };
        let [a, b] = pair.as_slice() else {
            return Err(err(at, "each link must name exactly two endpoints"));
        };
        let (Some(a), Some(b)) = (a.as_str(), b.as_str()) else {
            return Err(err(at, "link endpoints must be strings"));
        };
        links.push((a.to_owned(), b.to_owned()));
    }
    Ok(TopologySpec::Inline {
        switches: names("switches", MAX_SWITCHES)?,
        hosts: names("hosts", MAX_HOSTS)?,
        links,
    })
}

/// Field names a query object may carry.
const QUERY_FIELDS: &[&str] = &[
    "label",
    "topology",
    "ts_count",
    "frame_bytes",
    "period_us",
    "seed",
    "deadline_us",
    "jitter_us",
    "max_lost",
    "duration_us",
];

fn parse_query(value: &Json, index: usize) -> Result<QosQuery, String> {
    let at = format!("queries[{index}]");
    if !matches!(value, Json::Obj(_)) {
        return Err(err(&at, "each query must be an object"));
    }
    reject_unknown(value, &at, QUERY_FIELDS)?;
    let jitter = match value.get("jitter_us") {
        None => None,
        Some(_) => Some(micros_field(value, &at, "jitter_us")?),
    };
    let max_lost = match value.get("max_lost") {
        None => 0,
        Some(_) => u64_field(value, &at, "max_lost")?,
    };
    Ok(QosQuery {
        label: str_field(value, &at, "label")?,
        topology: parse_topology(require(value, &at, "topology")?, &at)?,
        ts_count: within(
            &at,
            "ts_count",
            u64_field(value, &at, "ts_count")?,
            MAX_TS_COUNT.into(),
        )? as u32,
        frame_bytes: u32_field(value, &at, "frame_bytes")?,
        period: micros_field(value, &at, "period_us")?,
        seed: u64_field(value, &at, "seed")?,
        deadline: micros_field(value, &at, "deadline_us")?,
        jitter,
        max_lost,
        duration: SimDuration::from_micros(within(
            &at,
            "duration_us",
            u64_field(value, &at, "duration_us")?,
            MAX_DURATION_US,
        )?),
    })
}

/// Parses a strict-JSON batch request into its queries.
///
/// Schema: `{"queries": [{...}, ...]}` where each query carries `label`
/// (string), `topology` (a named preset `{"kind", "switches", "hosts"}`
/// or an inline `{"switches": [names], "hosts": [names], "links":
/// [[a, b], ...]}`), `ts_count`, `frame_bytes`, `period_us`, `seed`,
/// `deadline_us`, `duration_us` (non-negative integers) and optional
/// `jitter_us` / `max_lost`. Durations are whole microseconds.
///
/// Sizes are bounded before anything is built: the request text by
/// [`MAX_REQUEST_BYTES`], switch, host and link counts by
/// [`MAX_SWITCHES`], [`MAX_HOSTS`] and [`MAX_LINKS`], `ts_count` by
/// [`MAX_TS_COUNT`] and `duration_us` by [`MAX_DURATION_US`].
///
/// # Errors
///
/// Lexical errors from the strict parser (trailing garbage and duplicate
/// keys included) and structural errors naming the offending query index
/// and field — unknown fields and out-of-bounds sizes are rejected, not
/// ignored or clamped.
pub fn parse_batch(text: &str) -> Result<Vec<QosQuery>, String> {
    if text.len() > MAX_REQUEST_BYTES {
        return Err(err(
            "request",
            format!("longer than the limit of {MAX_REQUEST_BYTES} bytes"),
        ));
    }
    let root = parse(text)?;
    if !matches!(root, Json::Obj(_)) {
        return Err(err("request", "the batch must be a JSON object"));
    }
    reject_unknown(&root, "request", &["queries"])?;
    let Some(Json::Arr(raw)) = root.get("queries") else {
        return Err(err("request", "field \"queries\" must be an array"));
    };
    raw.iter()
        .enumerate()
        .map(|(index, value)| parse_query(value, index))
        .collect()
}

fn cache_json(stats: CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Num(stats.hits as f64)),
        ("misses", Json::Num(stats.misses as f64)),
        ("entries", Json::Num(stats.entries as f64)),
        // Two decimals: enough for dashboards, still byte-stable.
        (
            "hit_rate",
            Json::Num((stats.hit_rate() * 100.0).round() / 100.0),
        ),
    ])
}

fn result_json(result: &QueryResult) -> Json {
    let mut members = vec![
        ("label".to_owned(), Json::Str(result.label.clone())),
        (
            "fingerprint".to_owned(),
            Json::Str(format!("{:016x}", result.fingerprint)),
        ),
    ];
    match &result.status {
        QueryStatus::Feasible(outcome) => {
            members.push(("status".to_owned(), Json::Str("feasible".to_owned())));
            let config = Json::obj(KNOBS.iter().map(|knob| {
                (
                    knob.name(),
                    Json::Num(f64::from(knob.value(&outcome.config))),
                )
            }));
            members.push(("config".to_owned(), config));
            members.push((
                "cost".to_owned(),
                Json::obj([
                    (
                        "bram36_blocks",
                        Json::Num(outcome.cost.bram36_blocks as f64),
                    ),
                    (
                        "register_bits",
                        Json::Num(outcome.cost.register_bits as f64),
                    ),
                ]),
            ));
            members.push((
                "slot_us".to_owned(),
                Json::Num(outcome.slot.as_micros_f64()),
            ));
            members.push((
                "bound_worst_us".to_owned(),
                Json::Num(outcome.bound_worst_us),
            ));
            members.push((
                "observed_worst_us".to_owned(),
                Json::Num(outcome.observed_worst_us),
            ));
            members.push(("margin_us".to_owned(), Json::Num(outcome.margin_us())));
            members.push(("sims".to_owned(), Json::Num(outcome.sims as f64)));
            members.push(("pruned".to_owned(), Json::Num(outcome.pruned as f64)));
        }
        QueryStatus::Infeasible { stage, reason } => {
            members.push(("status".to_owned(), Json::Str("infeasible".to_owned())));
            members.push(("stage".to_owned(), Json::Str(stage.clone())));
            members.push(("reason".to_owned(), Json::Str(reason.clone())));
        }
    }
    Json::Obj(members)
}

/// Answers `queries` on `engine` with a pool of `workers` threads and
/// renders the response tree. Results come back in request order; the
/// cache statistics are the engine's totals after the batch.
#[must_use]
pub fn run_batch(engine: &DseEngine, queries: &[QosQuery], workers: usize) -> Json {
    let results = run_sweep(queries, workers, |_, query| Ok(engine.answer(query)));
    let feasible = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                Ok(QueryResult {
                    status: QueryStatus::Feasible(_),
                    ..
                })
            )
        })
        .count();
    let stats = engine.stats();
    Json::obj([
        (
            "results",
            Json::Arr(
                results
                    .iter()
                    .map(|outcome| match outcome {
                        Ok(result) => result_json(result),
                        // `answer` is total; a panic would surface here.
                        Err(e) => Json::obj([
                            ("status", Json::Str("error".to_owned())),
                            ("reason", Json::Str(e.to_string())),
                        ]),
                    })
                    .collect(),
            ),
        ),
        ("feasible", Json::Num(feasible as f64)),
        ("infeasible", Json::Num((queries.len() - feasible) as f64)),
        (
            "cache",
            Json::obj([
                ("plans", cache_json(stats.plans)),
                ("candidates", cache_json(stats.candidates)),
                ("answers", cache_json(stats.answers)),
            ]),
        ),
    ])
}

/// End to end: parse a request, answer it on a fresh engine, pretty-print
/// the response. Byte-deterministic for any `workers` value.
///
/// # Errors
///
/// Parse errors from [`parse_batch`], verbatim.
pub fn run_batch_text(text: &str, workers: usize) -> Result<String, String> {
    let queries = parse_batch(text)?;
    let engine = DseEngine::new();
    Ok(run_batch(&engine, &queries, workers).pretty())
}

/// Labelled copies of every unique query in a [`bench_family`] batch:
/// distinct labels on one fingerprint exercise the answer-dedup path.
pub const BENCH_COPIES: usize = 5;

/// One family batch of the DSE bench (`cargo bench -p tsn-bench --bench
/// dse`): 20 unique queries over the three-switch `kind` preset (`ring`,
/// `linear` or `star`), each repeated [`BENCH_COPIES`] times under
/// distinct labels.
#[must_use]
pub fn bench_family(kind: &str) -> Vec<QosQuery> {
    let mut queries = Vec::new();
    for unique in 0..20u64 {
        // Mild diversity per unique query: flow count, deadline and seed
        // all move, and every fourth query adds a jitter target so the
        // slot-capping path is on the benched workload.
        let ts_count = 4 + 2 * (unique as u32 % 3);
        let deadline_us = [3000, 4000, 6000, 4000][unique as usize % 4];
        let jitter = (unique % 4 == 3).then(|| SimDuration::from_micros(130));
        let base = QosQuery {
            label: String::new(),
            topology: TopologySpec::Named {
                kind: kind.to_owned(),
                switches: 3,
                hosts: 2,
            },
            ts_count,
            frame_bytes: 128,
            period: SimDuration::from_millis(2),
            seed: 100 + unique,
            deadline: SimDuration::from_micros(deadline_us),
            jitter,
            max_lost: 0,
            duration: SimDuration::from_millis(4),
        };
        for copy in 0..BENCH_COPIES {
            let mut q = base.clone();
            q.label = format!("{kind}/{unique}/{copy}");
            queries.push(q);
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "queries": [
        {
          "label": "a",
          "topology": {"kind": "ring", "switches": 3, "hosts": 2},
          "ts_count": 4,
          "frame_bytes": 64,
          "period_us": 2000,
          "seed": 3,
          "deadline_us": 4000,
          "duration_us": 5000
        }
      ]
    }"#;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let queries = parse_batch(MINIMAL).expect("parses");
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].label, "a");
        assert_eq!(queries[0].max_lost, 0, "max_lost defaults to lossless");
        assert_eq!(queries[0].jitter, None);
        assert_eq!(queries[0].period, SimDuration::from_millis(2));
    }

    #[test]
    fn unknown_and_missing_fields_are_named_errors() {
        let unknown = MINIMAL.replace("\"seed\": 3", "\"seed\": 3, \"bogus\": 1");
        let e = parse_batch(&unknown).expect_err("unknown field");
        assert!(e.contains("queries[0]") && e.contains("bogus"), "{e}");

        let missing = MINIMAL.replace("\"seed\": 3,", "");
        let e = parse_batch(&missing).expect_err("missing field");
        assert!(e.contains("\"seed\""), "{e}");

        let e = parse_batch("[1, 2]").expect_err("non-object root");
        assert!(e.contains("must be a JSON object"), "{e}");
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        for text in [deep.clone(), format!("{{\"queries\": {deep}")] {
            let e = parse_batch(&text).expect_err("nesting limit");
            assert!(e.contains("nesting deeper than"), "{e}");
        }
        // Exactly at the limit the text parses, so the error is the
        // schema's, naming the query, not the parser's.
        let inner = tsn_experiments::json::MAX_DEPTH - 2;
        let at_limit = format!(
            "{{\"queries\": [{}{}]}}",
            "[".repeat(inner),
            "]".repeat(inner)
        );
        let e = parse_batch(&at_limit).expect_err("queries are objects");
        assert!(e.contains("queries[0]") && !e.contains("nesting"), "{e}");
    }

    #[test]
    fn inline_topologies_parse() {
        let inline = MINIMAL.replace(
            r#"{"kind": "ring", "switches": 3, "hosts": 2}"#,
            r#"{"switches": ["s0"], "hosts": ["h0", "h1"],
                "links": [["h0", "s0"], ["s0", "h1"]]}"#,
        );
        let queries = parse_batch(&inline).expect("parses");
        assert!(matches!(queries[0].topology, TopologySpec::Inline { .. }));
        let bad = inline.replace(r#"["s0", "h1"]"#, r#"["s0"]"#);
        let e = parse_batch(&bad).expect_err("one-endpoint link");
        assert!(e.contains("exactly two endpoints"), "{e}");
    }

    #[test]
    fn batch_responses_are_worker_count_invariant() {
        let one = run_batch_text(MINIMAL, 1).expect("runs");
        let four = run_batch_text(MINIMAL, 4).expect("runs");
        assert_eq!(one, four);
        assert!(one.contains("\"status\": \"feasible\""), "{one}");
    }
}
