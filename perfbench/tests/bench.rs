//! The benchmark's own contract: seeded inputs are reproducible and
//! seed-sensitive, deterministic metrics repeat exactly for a seed, and
//! span self time never exceeds span duration.

use perfbench::{customize, dse, plant, Layer, RunConfig, Span, Tracer, WorkloadRun};
use tsn_builder::plant::large_plant;

/// Metrics that come from simulated or derived outputs, not host time.
const DETERMINISTIC: [&str; 12] = [
    "resource.paper_kb",
    "hdl.lines",
    "sim.route_cache_hit_rate",
    "sim.events",
    "sim.events_per_ts_frame",
    "sim.kicks_suppressed_ratio",
    "sim.queue_high_water",
    "switch.frames_received",
    "switch.frames_transmitted",
    "dse.sims",
    "dse.pruned",
    "dse.answers_hit_rate",
];

fn cfg(seed: u64, seconds: f64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds,
        trace,
    }
}

fn deterministic(run: &WorkloadRun) -> Vec<(&'static str, f64)> {
    let mut values: Vec<_> = run
        .layer
        .iter()
        .copied()
        .filter(|(name, _)| DETERMINISTIC.contains(name))
        .collect();
    values.push(("answer_bram36", run.answer_bram36));
    values
}

fn plant_inputs(seed: u64) -> String {
    let p = large_plant(512).expect("plant builds");
    let deltas = plant::plant_deltas(seed, &p.config, &p.offsets, plant::DISTINCT_DELTAS)
        .expect("deltas build");
    format!("{deltas:?}")
}

#[test]
fn same_seed_gives_identical_inputs() {
    assert_eq!(dse::dse_batch(7), dse::dse_batch(7));
    let a = customize::requests(7, 30).expect("requests build");
    let b = customize::requests(7, 30).expect("requests build");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.kind, x.tas, &x.flows), (y.kind, y.tas, &y.flows));
    }
    assert_eq!(plant_inputs(7), plant_inputs(7));
}

#[test]
fn a_different_seed_changes_the_inputs() {
    assert_ne!(dse::dse_batch(7), dse::dse_batch(8));
    let a = customize::requests(7, 30).expect("requests build");
    let b = customize::requests(8, 30).expect("requests build");
    assert!(a.iter().zip(&b).any(|(x, y)| x.flows != y.flows));
    assert_ne!(plant_inputs(7), plant_inputs(8));
}

#[test]
fn request_pool_keeps_its_mix_across_seeds() {
    let mix = |seed| {
        let mut v: Vec<_> = customize::requests(seed, 30)
            .expect("requests build")
            .iter()
            .map(|r| (r.flows.len(), r.kind, r.tas))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(mix(1), mix(2), "a seed reorders the pool, not its mix");
    let pool = customize::requests(1, 30).expect("requests build");
    let tas: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].tas).collect();
    assert_eq!(tas, [4, 9, 14, 19, 24, 29], "every 5th request is TAS");
}

#[test]
fn same_seed_gives_identical_deterministic_metrics() {
    let run =
        |seed| customize::run(&cfg(seed, 0.01, false), 6, &mut Tracer::new(false)).expect("runs");
    let (a, b) = (run(3), run(3));
    assert_eq!(a.measured.failed, 0, "{:?}", a.measured.first_error);
    assert_eq!(deterministic(&a), deterministic(&b));

    let run =
        |seed| plant::run(&cfg(seed, 0.01, false), 512, &mut Tracer::new(false)).expect("runs");
    let (a, b) = (run(3), run(3));
    assert_eq!(a.measured.failed, 0, "{:?}", a.measured.first_error);
    assert!(
        a.run_checks.iter().all(|(_, r)| r.is_ok()),
        "{:?}",
        a.run_checks
    );
    assert_eq!(deterministic(&a), deterministic(&b));
}

/// Every span's self time is at most its duration and equals it minus
/// its children, which lie inside it one after another.
fn check_spans(spans: &[Span], self_ns: &[u64]) {
    for (i, (span, own)) in spans.iter().zip(self_ns).enumerate() {
        assert!(
            span.end_ns >= span.start_ns,
            "span {i} ends before it starts"
        );
        assert!(
            *own <= span.duration_ns(),
            "span {i}: self time exceeds duration"
        );
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(i)).collect();
        let mut last_end = span.start_ns;
        for child in &children {
            assert!(child.start_ns >= last_end, "children of span {i} overlap");
            assert!(
                child.end_ns <= span.end_ns,
                "a child of span {i} outlives it"
            );
            last_end = child.end_ns;
        }
        let covered: u64 = children.iter().map(|c| c.duration_ns()).sum();
        assert_eq!(*own, span.duration_ns() - covered);
    }
}

#[test]
fn span_self_time_never_exceeds_duration() {
    let mut tracer = Tracer::new(true);
    tracer.set_op(1);
    tracer.span("op", Layer::Bench, || ());
    let outer = tracer.enter("op", Layer::Bench);
    let inner = tracer.enter("sim.run", Layer::Sim);
    tracer.span("hdl.parse", Layer::Hdl, || std::hint::black_box(1 + 1));
    tracer.exit(inner);
    tracer.span("dse.plan", Layer::Dse, || ());
    tracer.exit(outer);
    check_spans(tracer.spans(), &tracer.self_times_ns());

    // A real traced run: blocks of 2 requests alternate untraced/traced.
    let mut tracer = Tracer::new(true);
    let run = customize::run(&cfg(5, 1.0, true), 2, &mut tracer).expect("runs");
    assert!(!run.measured.traced_ns.is_empty(), "the traced half ran");
    assert!(tracer
        .spans()
        .iter()
        .any(|s| s.op >= 1 && s.name == "hdl.lint"));
    check_spans(tracer.spans(), &tracer.self_times_ns());
    let total: u64 = tracer.layer_self_ns().iter().sum();
    let ops: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op" && s.op >= 1)
        .map(Span::duration_ns)
        .sum();
    assert_eq!(total, ops, "layer self times partition the timed ops");
}
