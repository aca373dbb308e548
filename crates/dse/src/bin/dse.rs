//! `dse` — the design-space-search service CLI.
//!
//! Two modes:
//!
//! * **Batch** (default): read a strict-JSON request (`{"queries":
//!   [...]}`, see `tsn_dse::parse_batch`) from a file argument or stdin
//!   and print the response. `--workers N` sizes the pool; the response
//!   bytes are identical for every worker count.
//! * **Bench** (`--bench` / `--smoke`): answer three deterministic
//!   100-query batches (one per topology family, 20 unique queries × 5
//!   labels each — the duplication is the service's cache-hit workload)
//!   on a fresh engine per pass,
//!   best-of-passes within the `TSN_DSE_MS` budget (default 2000), and
//!   write `BENCH_9.json` at the repo root with queries/sec and cache
//!   hit rates per family. CI smokes this and gates the queries/sec
//!   geomean vs the pinned baselines at >= 0.95x; positional arguments
//!   filter families by substring. The run exits 1 when a family's
//!   simulation count, an exact counter, exceeds
//!   `MAX_SIMS_PER_UNIQUE_QUERY` per unique query.

use std::io::Read;
use std::time::Instant;

use tsn_dse::batch::MAX_REQUEST_BYTES;
use tsn_dse::{bench_family, parse_batch, run_batch, DseEngine, BENCH_COPIES};

/// Pinned queries/sec per family, recorded on this machine at
/// `TSN_DSE_MS=8000` (commit that introduced BENCH_9.json). The CI gate
/// keeps the geomean of current/baseline >= 0.95.
const BASELINE_QUERIES_PER_SEC: &[(&str, f64)] = &[
    ("dse/ring", 7600.0),
    ("dse/linear", 7200.0),
    ("dse/star", 6500.0),
];

/// Candidate simulations a unique query may cost: the certify step's
/// three (candidate, `queue_depth − 1`, `buffer_num − 1`). Unlike
/// queries/sec this does not depend on the host, so a rise is a search
/// regression.
const MAX_SIMS_PER_UNIQUE_QUERY: u64 = 3;

struct FamilyResult {
    name: String,
    queries: usize,
    unique: usize,
    passes: u32,
    best_ns: u64,
    queries_per_sec: f64,
    sims: u64,
    answers_hit_rate: f64,
    plans_hit_rate: f64,
    candidates_hit_rate: f64,
}

fn run_family(name: &str, kind: &str, workers: usize, budget_ms: u64) -> FamilyResult {
    let queries = bench_family(kind);
    let unique = queries.len() / BENCH_COPIES;
    let family_start = Instant::now();
    let mut best_ns = u64::MAX;
    let mut passes = 0u32;
    let stats = loop {
        // Fresh engine per pass: the bench measures cold-engine batch
        // throughput (intra-batch dedup included), not rewarmed caches.
        let engine = DseEngine::new();
        let pass_start = Instant::now();
        let response = run_batch(&engine, &queries, workers);
        best_ns = best_ns.min(pass_start.elapsed().as_nanos() as u64);
        passes += 1;
        let stats = engine.stats();
        let feasible = response
            .get("feasible")
            .and_then(tsn_experiments::json::Json::as_u64)
            .unwrap_or(0);
        assert_eq!(
            feasible as usize,
            queries.len(),
            "{name}: the bench workload must stay fully feasible"
        );
        if family_start.elapsed().as_millis() as u64 >= budget_ms {
            break stats;
        }
    };
    FamilyResult {
        name: name.to_owned(),
        queries: queries.len(),
        unique,
        passes,
        best_ns,
        queries_per_sec: queries.len() as f64 / (best_ns as f64 / 1e9),
        sims: stats.candidates.misses,
        answers_hit_rate: stats.answers.hit_rate(),
        plans_hit_rate: stats.plans.hit_rate(),
        candidates_hit_rate: stats.candidates.hit_rate(),
    }
}

fn write_bench_json(results: &[FamilyResult], budget_ms: u64) {
    let baselines: std::collections::HashMap<&str, f64> =
        BASELINE_QUERIES_PER_SEC.iter().copied().collect();
    let mut entries = Vec::new();
    let mut ratios = Vec::new();
    for r in results {
        let baseline = baselines.get(r.name.as_str()).copied();
        let ratio = baseline.map(|b| r.queries_per_sec / b);
        if let Some(v) = ratio {
            ratios.push(v);
        }
        entries.push(format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"unique\": {}, \"passes\": {}, \
             \"best_ns\": {}, \"queries_per_sec\": {:.1}, \"sims\": {}, \
             \"answers_hit_rate\": {:.3}, \"plans_hit_rate\": {:.3}, \
             \"candidates_hit_rate\": {:.3}, \
             \"baseline_queries_per_sec\": {}, \"vs_baseline\": {}}}",
            r.name,
            r.queries,
            r.unique,
            r.passes,
            r.best_ns,
            r.queries_per_sec,
            r.sims,
            r.answers_hit_rate,
            r.plans_hit_rate,
            r.candidates_hit_rate,
            baseline.map_or("null".into(), |b| format!("{b:.1}")),
            ratio.map_or("null".into(), |v| format!("{v:.3}")),
        ));
    }
    let geomean = if ratios.is_empty() {
        "null".to_owned()
    } else {
        let g = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        format!("{g:.3}")
    };
    let json = format!(
        "{{\n  \"bench\": \"dse\",\n  \"baseline\": \"same machine, TSN_DSE_MS=8000\",\n  \
         \"budget_ms\": {budget_ms},\n  \"queries_per_sec_geomean_vs_baseline\": {geomean},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (queries/sec geomean {geomean}x vs baseline)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn run_bench(filters: &[String], workers: usize) {
    let budget_ms: u64 = std::env::var("TSN_DSE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let families = [
        ("dse/ring", "ring"),
        ("dse/linear", "linear"),
        ("dse/star", "star"),
    ];
    // Each family gets an equal slice of the budget.
    let per_family = budget_ms / families.len() as u64;
    let mut results = Vec::new();
    for (name, kind) in families {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        let r = run_family(name, kind, workers, per_family);
        println!(
            "{:<12} {:>4} queries ({} unique, {} passes)  {:>8.1} q/s  {:>4} sims  \
             cache hits: answers {:.0}% plans {:.0}% candidates {:.0}%",
            r.name,
            r.queries,
            r.unique,
            r.passes,
            r.queries_per_sec,
            r.sims,
            r.answers_hit_rate * 100.0,
            r.plans_hit_rate * 100.0,
            r.candidates_hit_rate * 100.0,
        );
        results.push(r);
    }
    if results.is_empty() {
        println!("dse bench: no family selected");
        return;
    }
    write_bench_json(&results, budget_ms);
    let mut over = false;
    for r in &results {
        let limit = MAX_SIMS_PER_UNIQUE_QUERY * r.unique as u64;
        if r.sims > limit {
            eprintln!(
                "dse bench: {} ran {} simulations for {} unique queries \
                 (limit {MAX_SIMS_PER_UNIQUE_QUERY} per query, {limit})",
                r.name, r.sims, r.unique
            );
            over = true;
        }
    }
    if over {
        std::process::exit(1);
    }
}

/// Reads at most one byte past `MAX_REQUEST_BYTES`, so an over-long
/// request is refused by `parse_batch` without being held in memory.
fn read_request(source: impl Read, name: &str) -> String {
    let mut bytes = Vec::new();
    if let Err(e) = source
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_to_end(&mut bytes)
    {
        eprintln!("dse: cannot read {name}: {e}");
        std::process::exit(2);
    }
    match String::from_utf8(bytes) {
        Ok(text) => text,
        // The cut may split a character; the length check still fires.
        Err(e) if e.as_bytes().len() > MAX_REQUEST_BYTES => {
            String::from_utf8_lossy(e.as_bytes()).into_owned()
        }
        Err(e) => {
            eprintln!("dse: cannot read {name}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_batch_mode(input: Option<&str>, workers: usize) {
    let text = match input {
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => read_request(file, path),
            Err(e) => {
                eprintln!("dse: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => read_request(std::io::stdin().lock(), "stdin"),
    };
    let queries = match parse_batch(&text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("dse: bad request: {e}");
            std::process::exit(2);
        }
    };
    let engine = DseEngine::new();
    let response = run_batch(&engine, &queries, workers);
    // Infeasible queries are an answered result, not a process failure;
    // only a malformed request exits non-zero.
    print!("{}", response.pretty());
}

fn main() {
    let mut bench = false;
    let mut workers = 4usize;
    let mut input: Option<String> = None;
    let mut filters = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" | "--smoke" => bench = true,
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("dse: --workers needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                println!(
                    "usage: dse [REQUEST.json] [--workers N]   answer a JSON batch \
                     (stdin when no file)\n       dse --bench|--smoke [FILTER...]    \
                     run the tracked benchmark (TSN_DSE_MS budget)"
                );
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("dse: unknown flag {other} (see --help)");
                std::process::exit(2);
            }
            other => {
                if bench {
                    filters.push(other.to_owned());
                } else {
                    input = Some(other.to_owned());
                }
            }
        }
    }
    if bench {
        run_bench(&filters, workers);
    } else {
        run_batch_mode(input.as_deref(), workers);
    }
}
