//! `dse` — the design-space-search service CLI.
//!
//! Reads a strict-JSON request (`{"queries": [...]}`, see
//! `tsn_dse::parse_batch`) from a file argument or stdin and prints the
//! response. `--workers N` (at most `limits::MAX_WORKERS`) sizes the
//! pool; the response bytes are identical for every worker count. A
//! second request file is a usage error (exit 2, nothing read). The
//! service's benchmark is `cargo bench -p tsn-bench --bench dse`.

use std::io::Read;

use tsn_dse::batch::MAX_REQUEST_BYTES;
use tsn_dse::{parse_batch, run_batch, DseEngine};
use tsn_experiments::limits;

const USAGE: &str =
    "usage: dse [REQUEST.json] [--workers N]   answer a JSON batch (stdin when no file)";

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

fn main() {
    let mut workers = 4usize;
    let mut input: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = match args.next().as_deref().map(limits::workers) {
                    Some(Ok(w)) => w,
                    Some(Err(e)) => {
                        eprintln!("dse: --workers: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("dse: --workers needs a value");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("dse: unknown flag {other} (see --help)");
                std::process::exit(2);
            }
            other if input.is_none() => input = Some(other.to_owned()),
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let text = match input {
        Some(path) => match std::fs::File::open(&path) {
            Ok(file) => read_request(file, &path),
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
    let response = run_batch(&DseEngine::new(), &queries, workers);
    // Infeasible queries are an answered result, not a process failure;
    // only a malformed request exits non-zero.
    print!("{}", response.pretty());
}
