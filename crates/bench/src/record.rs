//! The one record every tracked bench writes and the one gate helper
//! every bench enforces.
//!
//! A bench pushes one [`Record::case`] per measured case and calls
//! [`enforce`] on [`Record::finish`]. The record compares each case's
//! headline metric with its pin, rewrites the tracked `BENCH_*.json`
//! file only for an unfiltered run at the budget the file was recorded
//! at (so a smoke run never does), and checks the bench's gates; a
//! breach exits 1 naming the case and the metric. All pins and gates
//! live in the four [`Spec`]s below, so they can be read, and changed,
//! in one place. Gated fields keep the names the tracked files hold.

use tsn_experiments::json::Json;

/// A bound on one metric of a record: on its top level
/// ([`Gate::summary`]) or on every case ([`Gate::each`]).
#[derive(Debug, Clone, Copy)]
struct Gate {
    each_case: bool,
    metric: &'static str,
    per: Option<&'static str>,
    lo: f64,
    hi: f64,
}

impl Gate {
    /// An unbounded gate on the record's top-level `metric`.
    const fn summary(metric: &'static str) -> Gate {
        Gate {
            each_case: false,
            metric,
            per: None,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// An unbounded gate on `metric` of every case.
    const fn each(metric: &'static str) -> Gate {
        Gate {
            each_case: true,
            ..Gate::summary(metric)
        }
    }

    /// Gates `metric / divisor` instead of `metric`.
    const fn per(self, divisor: &'static str) -> Gate {
        Gate {
            per: Some(divisor),
            ..self
        }
    }

    /// Adds the floor `lo`.
    const fn at_least(self, lo: f64) -> Gate {
        Gate { lo, ..self }
    }

    /// Adds the ceiling `hi`.
    const fn at_most(self, hi: f64) -> Gate {
        Gate { hi, ..self }
    }

    /// The breach in `object` (named by its `name_key` field), if any:
    /// the gated value out of bounds, or a gated field missing. A `null`
    /// value — not measured on this host, or a geomean over no pinned
    /// case — passes.
    fn breach(&self, object: &Json, name_key: &str) -> Option<String> {
        let name = object.get(name_key).and_then(Json::as_str).unwrap_or("?");
        let read = |key: &str| match object.get(key) {
            Some(Json::Null) => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or(format!("{key} is not a number")),
            None => Err(format!("{key} is missing")),
        };
        let value = read(self.metric).and_then(|v| match self.per {
            Some(divisor) => Ok(v.zip(read(divisor)?).map(|(v, d)| v / d)),
            None => Ok(v),
        });
        match value {
            Err(e) => Some(format!("{name}: {e}")),
            Ok(Some(v)) if !(self.lo..=self.hi).contains(&v) => {
                Some(format!("{name}: {self} breached by {v}"))
            }
            Ok(_) => None,
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.metric)?;
        if let Some(divisor) = self.per {
            write!(f, " per {divisor}")?;
        }
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => write!(f, " in [{}, {}]", self.lo, self.hi),
            (true, false) => write!(f, " >= {}", self.lo),
            (false, _) => write!(f, " <= {}", self.hi),
        }
    }
}

/// Checks `gates` against a record, as [`Record::finish`] builds it or
/// as a tracked file parses: one line per breach, naming the case (the
/// bench, for a summary gate) and the metric.
fn check(record: &Json, gates: &[Gate]) -> Result<(), String> {
    let cases = match record.get("results") {
        Some(Json::Arr(cases)) => cases.as_slice(),
        _ => &[],
    };
    let mut breaches = Vec::new();
    for gate in gates {
        if gate.each_case {
            breaches.extend(cases.iter().filter_map(|case| gate.breach(case, "name")));
        } else {
            breaches.extend(gate.breach(record, "bench"));
        }
    }
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(breaches.join("\n"))
    }
}

/// Prints every breach among `outcomes` and exits 1 if there is one.
pub fn enforce(outcomes: impl IntoIterator<Item = Result<(), String>>) {
    let breaches: Vec<String> = outcomes.into_iter().filter_map(Result::err).collect();
    if !breaches.is_empty() {
        eprintln!("gate breached:\n{}", breaches.join("\n"));
        std::process::exit(1);
    }
}

/// The repository root, where the tracked files live.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// One bench's tracked file, pins and gates. Each case records its pin
/// as `baseline_<metric>` and its speedup over the pin (> 1 is faster)
/// as `vs_baseline`.
#[derive(Debug)]
pub struct Spec {
    /// The record's `bench` field.
    bench: &'static str,
    /// The tracked file at the repository root.
    file: &'static str,
    /// The `TSN_BENCH_MS` budget the tracked file was recorded at.
    recorded_budget_ms: u64,
    /// The case field compared with the pins.
    metric: &'static str,
    /// Whether a larger `metric` is faster (a rate, not a time).
    higher_is_better: bool,
    /// The top-level field holding the speedups' geomean.
    geomean_field: &'static str,
    /// The pinned `metric` per case name.
    pins: &'static [(&'static str, f64)],
    /// What every run must satisfy.
    gates: &'static [Gate],
}

/// `x` rounded to `decimals` places, as a JSON number.
#[must_use]
pub fn num(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// One bench run's cases, compared with the pins of its [`Spec`].
#[derive(Debug)]
pub struct Record {
    spec: &'static Spec,
    budget_ms: u64,
    cases: Vec<Json>,
    ratios: Vec<f64>,
}

impl Record {
    /// An empty record of a run at `budget_ms`.
    #[must_use]
    pub fn new(spec: &'static Spec, budget_ms: u64) -> Record {
        Record {
            spec,
            budget_ms,
            cases: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Adds case `name` with its `fields`, then its pin and its speedup
    /// over the pin (both `null` when the case has no pin).
    ///
    /// # Panics
    ///
    /// When `fields` lacks the spec's metric.
    pub fn case(&mut self, name: &str, fields: Vec<(&str, Json)>) {
        let spec = self.spec;
        let value = fields
            .iter()
            .find_map(|(key, v)| (*key == spec.metric).then(|| v.as_f64()).flatten())
            .unwrap_or_else(|| panic!("{name}: no {} field", spec.metric));
        let pin = spec.pins.iter().find(|p| p.0 == name).map(|p| p.1);
        let ratio = pin.map(|pin| {
            if spec.higher_is_better {
                value / pin
            } else {
                pin / value
            }
        });
        self.ratios.extend(ratio);
        let baseline = format!("baseline_{}", spec.metric);
        let members = [("name", Json::Str(name.to_owned()))]
            .into_iter()
            .chain(fields)
            .chain([
                (baseline.as_str(), pin.map_or(Json::Null, Json::Num)),
                ("vs_baseline", ratio.map_or(Json::Null, |r| num(r, 3))),
            ]);
        self.cases.push(Json::obj(members));
    }

    fn to_json(&self) -> Json {
        let n = self.ratios.len() as f64;
        let log_sum: f64 = self.ratios.iter().map(|r| r.ln()).sum();
        let geomean = if n > 0.0 {
            num((log_sum / n).exp(), 3)
        } else {
            Json::Null
        };
        Json::obj([
            ("bench", Json::Str(self.spec.bench.to_owned())),
            ("budget_ms", Json::Num(self.budget_ms as f64)),
            (self.spec.geomean_field, geomean),
            ("results", Json::Arr(self.cases.clone())),
        ])
    }

    /// Writes the tracked file when the run is unfiltered and at its
    /// recorded budget, then checks the spec's gates. A record with no
    /// case (all filtered out) does nothing.
    ///
    /// # Errors
    ///
    /// The breaches: one line each, naming the case (the bench, for a
    /// summary gate) and the metric.
    pub fn finish(self) -> Result<(), String> {
        let spec = self.spec;
        if self.cases.is_empty() {
            return Ok(());
        }
        let record = self.to_json();
        if let Some(g) = record.get(spec.geomean_field).and_then(Json::as_f64) {
            println!("{}: {} = {g}", spec.bench, spec.geomean_field);
        }
        if self.budget_ms == spec.recorded_budget_ms && self.ratios.len() == spec.pins.len() {
            let path = format!("{ROOT}/{}", spec.file);
            match std::fs::write(&path, record.pretty()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        } else {
            println!(
                "{} left as recorded (at {} ms, every pinned case)",
                spec.file, spec.recorded_budget_ms
            );
        }
        check(&record, spec.gates)?;
        let gates: Vec<String> = spec.gates.iter().map(Gate::to_string).collect();
        println!("{} gates hold: {}", spec.bench, gates.join("; "));
        Ok(())
    }
}

/// The simulation bench (`BENCH_2.json`): median ns per end-to-end run.
/// The pins are the medians at commit b8cca7c (binary-heap event queue,
/// poll-based port wakeups), the pre-overhaul baseline, at a 2000 ms
/// budget; the two `sim_multi` pins postdate it and are the serial-loop
/// medians pinned when those scenarios were first benched.
pub const SIMULATION: Spec = Spec {
    bench: "simulation",
    file: "BENCH_2.json",
    recorded_budget_ms: 2000,
    metric: "median_ns",
    higher_is_better: false,
    geomean_field: "geomean_speedup",
    pins: &[
        ("sim_fig7/ts_flows/32", 178_620.0),
        ("sim_fig7/ts_flows/128", 616_120.0),
        ("sim_fig2/bg_mbps/100", 735_880.0),
        ("sim_fig2/bg_mbps/400", 2_210_000.0),
        ("sim_build/network_build_512_flows", 653_640.0),
        ("sim_preemption/enabled/false", 1_960_000.0),
        ("sim_preemption/enabled/true", 133_480_000.0),
        ("sim_multi/ring12", 479_140.0),
        ("sim_multi/star8", 458_380.0),
    ],
    gates: &[Gate::summary("geomean_speedup").at_least(0.95)],
};

/// The plant cases of the scale bench (`BENCH_7.json`): events/sec of
/// one timed run, pinned on a 1-CPU machine at a 2000 ms budget when
/// the hot-path flattening landed (quiet-host runs then measured
/// ~6.8–7.2M / ~1.9–2.2M). The floor sits an order of magnitude under
/// the pins, so it catches a complexity regression, not host noise.
pub const SCALE: Spec = Spec {
    bench: "scale",
    file: "BENCH_7.json",
    recorded_budget_ms: 2000,
    metric: "events_per_sec",
    higher_is_better: true,
    geomean_field: "events_per_sec_geomean_vs_baseline",
    pins: &[
        ("scale/flows/10k", 6_000_000.0),
        ("scale/flows/100k", 1_800_000.0),
    ],
    gates: &[
        Gate::summary("events_per_sec_geomean_vs_baseline").at_least(0.95),
        Gate::each("events_per_sec").at_least(300_000.0),
        Gate::each("peak_rss_bytes").at_most(512.0 * 1024.0 * 1024.0),
    ],
};

/// The reconfigure-path cases of the scale bench (`BENCH_10.json`):
/// events/sec of a reconfigured instance, pinned at a 2000 ms budget
/// when the incremental path landed (quiet-host runs: ~7.5M / ~2.7M).
/// Reconfiguring must beat a rebuild 2x even at 10k flows, where fixed
/// per-instantiation costs compress the ratio (100k clears 5x).
pub const RECONFIG: Spec = Spec {
    bench: "reconfig",
    file: "BENCH_10.json",
    recorded_budget_ms: 2000,
    metric: "events_per_sec",
    higher_is_better: true,
    geomean_field: "events_per_sec_geomean_vs_baseline",
    pins: &[
        ("reconfig/flows/10k", 5_500_000.0),
        ("reconfig/flows/100k", 2_200_000.0),
    ],
    gates: &[
        Gate::summary("events_per_sec_geomean_vs_baseline").at_least(0.95),
        Gate::each("reconfigure_speedup").at_least(2.0),
    ],
};

/// The DSE bench (`BENCH_9.json`): queries/sec of a cold 100-query
/// family batch, pinned at an 8000 ms budget. Each unique query comes
/// 5 times, so the answer cache hits 0.8 exactly when fingerprint dedup
/// works; a unique query may cost the certify step's three simulations
/// (candidate, `queue_depth − 1`, `buffer_num − 1`), a count that does
/// not depend on the host.
pub const DSE: Spec = Spec {
    bench: "dse",
    file: "BENCH_9.json",
    recorded_budget_ms: 8000,
    metric: "queries_per_sec",
    higher_is_better: true,
    geomean_field: "queries_per_sec_geomean_vs_baseline",
    pins: &[
        ("dse/ring", 7600.0),
        ("dse/linear", 7200.0),
        ("dse/star", 6500.0),
    ],
    gates: &[
        Gate::summary("queries_per_sec_geomean_vs_baseline").at_least(0.95),
        Gate::each("answers_hit_rate").at_least(0.79).at_most(0.81),
        Gate::each("sims").per("unique").at_most(3.0),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_experiments::json::parse;

    const TEST: Spec = Spec {
        bench: "test",
        file: "BENCH_TEST.json",
        recorded_budget_ms: 1,
        metric: "rate",
        higher_is_better: true,
        geomean_field: "geomean",
        pins: &[("a", 100.0), ("b", 400.0)],
        gates: &[
            Gate::summary("geomean").at_least(0.95),
            Gate::each("hit").at_least(0.79).at_most(0.81),
            Gate::each("sims").per("unique").at_most(3.0),
        ],
    };

    /// A record of `(case, rate, hit rate, sims)` rows, 20 unique each.
    fn record(cases: &[(&str, f64, f64, f64)]) -> Json {
        let mut record = Record::new(&TEST, 0);
        for &(name, rate, hit, sims) in cases {
            let fields = [
                ("rate", rate),
                ("hit", hit),
                ("sims", sims),
                ("unique", 20.0),
            ];
            record.case(name, fields.map(|(k, v)| (k, Json::Num(v))).to_vec());
        }
        record.to_json()
    }

    #[test]
    fn geomean_skips_cases_without_a_pin() {
        // a: 2x its pin, b: 0.5x, c: no pin — the geomean is over a and b.
        let json = record(&[
            ("a", 200.0, 0.8, 1.0),
            ("b", 200.0, 0.8, 1.0),
            ("c", 7.0, 0.8, 1.0),
        ]);
        assert_eq!(json.get("geomean"), Some(&Json::Num(1.0)));
        let Some(Json::Arr(cases)) = json.get("results") else {
            panic!("results array");
        };
        assert_eq!(cases[2].get("vs_baseline"), Some(&Json::Null));
        assert_eq!(cases[0].get("baseline_rate"), Some(&Json::Num(100.0)));
        assert_eq!(check(&json, TEST.gates), Ok(()));
        assert_eq!(
            parse(&json.pretty()).as_ref(),
            Ok(&json),
            "the file reads back"
        );
        // Only unpinned cases: a null geomean, which its gate lets pass.
        let unpinned = record(&[("c", 7.0, 0.8, 1.0)]);
        assert_eq!(unpinned.get("geomean"), Some(&Json::Null));
        assert_eq!(check(&unpinned, TEST.gates), Ok(()));
    }

    #[test]
    fn breaches_name_the_case_and_the_metric() {
        let floor = record(&[("a", 90.0, 0.8, 60.0)]);
        assert_eq!(
            check(&floor, TEST.gates),
            Err("test: geomean >= 0.95 breached by 0.9".to_owned())
        );
        let range = record(&[("a", 100.0, 0.5, 60.0), ("b", 400.0, 0.9, 61.0)]);
        assert_eq!(
            check(&range, TEST.gates),
            Err("a: hit in [0.79, 0.81] breached by 0.5\n\
                 b: hit in [0.79, 0.81] breached by 0.9\n\
                 b: sims per unique <= 3 breached by 3.05"
                .to_owned())
        );
        let missing = parse(r#"{"bench": "t", "results": [{"name": "x", "hit": null}]}"#);
        assert_eq!(
            check(&missing.expect("parses"), TEST.gates),
            Err("t: geomean is missing\nx: sims is missing".to_owned())
        );
    }

    /// The tracked files are not re-recorded when the writer changes, so
    /// each must keep every field its gates read — and its recorded
    /// numbers clear those gates.
    #[test]
    fn committed_records_hold_every_gated_field() {
        for spec in [&SIMULATION, &SCALE, &RECONFIG, &DSE] {
            let text = std::fs::read_to_string(format!("{ROOT}/{}", spec.file)).expect("tracked");
            let record = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.file));
            assert_eq!(record.get("bench").and_then(Json::as_str), Some(spec.bench));
            assert!(record
                .get(spec.geomean_field)
                .and_then(Json::as_f64)
                .is_some());
            if let Err(e) = check(&record, spec.gates) {
                panic!("{}:\n{e}", spec.file);
            }
        }
    }
}
