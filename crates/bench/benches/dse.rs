//! Design-space-search bench: the service answers three deterministic
//! 100-query batches, one per topology family (20 unique queries × 5
//! labels each — the duplication is the service's cache-hit workload),
//! on a fresh engine per pass, best-of-passes within an equal slice of
//! the `TSN_BENCH_MS` budget per family. Queries/sec, simulation count
//! and cache hit rates are recorded and gated as
//! [`tsn_bench::record::DSE`] (`BENCH_9.json`).

use std::time::Instant;

use tsn_bench::record::{num, DSE};
use tsn_bench::{enforce, Record, Runner};
use tsn_dse::{bench_family, run_batch, DseEngine, BENCH_COPIES};
use tsn_experiments::json::Json;

/// Worker threads answering each batch.
const WORKERS: usize = 4;

fn main() {
    let runner = Runner::from_env();
    let kinds = ["ring", "linear", "star"];
    let per_family_ms = runner.budget_ms() / kinds.len() as u64;
    let mut record = Record::new(&DSE, runner.budget_ms());
    for kind in kinds {
        let name = format!("dse/{kind}");
        if !runner.selected(&name) {
            continue;
        }
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
            let response = run_batch(&engine, &queries, WORKERS);
            best_ns = best_ns.min(pass_start.elapsed().as_nanos() as u64);
            passes += 1;
            assert_eq!(
                response.get("feasible").and_then(Json::as_u64),
                Some(queries.len() as u64),
                "{name}: the bench workload must stay fully feasible"
            );
            if family_start.elapsed().as_millis() as u64 >= per_family_ms {
                break engine.stats();
            }
        };
        let queries_per_sec = queries.len() as f64 / (best_ns as f64 / 1e9);
        let sims = stats.candidates.misses;
        println!(
            "{name:<12} {:>4} queries ({unique} unique, {passes} passes)  \
             {queries_per_sec:>8.1} q/s  {sims:>4} sims  \
             cache hits: answers {:.0}% plans {:.0}% candidates {:.0}%",
            queries.len(),
            stats.answers.hit_rate() * 100.0,
            stats.plans.hit_rate() * 100.0,
            stats.candidates.hit_rate() * 100.0,
        );
        record.case(
            &name,
            vec![
                ("queries", Json::Num(queries.len() as f64)),
                ("unique", Json::Num(unique as f64)),
                ("passes", Json::Num(passes.into())),
                ("best_ns", Json::Num(best_ns as f64)),
                ("queries_per_sec", num(queries_per_sec, 1)),
                ("sims", Json::Num(sims as f64)),
                ("answers_hit_rate", num(stats.answers.hit_rate(), 3)),
                ("plans_hit_rate", num(stats.plans.hit_rate(), 3)),
                ("candidates_hit_rate", num(stats.candidates.hit_rate(), 3)),
            ],
        );
    }
    enforce([record.finish()]);
}
