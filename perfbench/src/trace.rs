//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each layer's public functions; no code inside the layers is
//! instrumented. Every span carries a name, its layer, start and end on
//! one monotonic clock, the span that encloses it and the op it belongs
//! to. Spans stay in memory until [`Tracer::to_jsonl`] writes them out
//! at the end of the run. A disabled tracer records nothing, so the
//! untraced ops of a run pay one branch per would-be span.

use std::fmt::Write as _;
use std::time::Instant;

/// The crates the benchmark attributes time to, plus its own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `tsn-builder`: derive, CQF/ITP planning, plant generation,
    /// network synthesis.
    Builder,
    /// `tsn-resource`: BRAM accounting.
    Resource,
    /// `tsn-hdl`: Verilog emission and its parse/lint/cost check.
    Hdl,
    /// `tsn-sim`: templates, reconfiguration and the event loop (the
    /// `tsn-switch` templates run inside it).
    Sim,
    /// `tsn-dse`: design-space search.
    Dse,
    /// The benchmark's own code between layer calls.
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Builder,
        Layer::Resource,
        Layer::Hdl,
        Layer::Sim,
        Layer::Dse,
        Layer::Bench,
    ];

    /// Short name used in metric names and span files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Builder => "builder",
            Layer::Resource => "resource",
            Layer::Hdl => "hdl",
            Layer::Sim => "sim",
            Layer::Dse => "dse",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `sim.run`.
    pub name: &'static str,
    /// Which layer the call enters.
    pub layer: Layer,
    /// The op the span belongs to (0 = set-up).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SpanId(Option<usize>);

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only while enabled.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: Layer) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes the span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, layer);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the time its direct
    /// children cover. Children of one span run one after another on the
    /// same thread, so their durations never overlap.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Total self time per layer over the spans inside measured ops
    /// (under an `op` root span of an op `>= 1`; set-up warm-up is
    /// excluded), in [`Layer::ALL`] order.
    #[must_use]
    pub fn layer_self_ns(&self) -> [u64; 6] {
        let mut in_op = vec![false; self.spans.len()];
        let mut totals = [0u64; 6];
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            // Parents open before their children, so `in_op[parent]` is
            // already known.
            in_op[i] = match span.parent {
                Some(parent) => in_op[parent],
                None => span.name == "op" && span.op >= 1,
            };
            if in_op[i] {
                let slot = Layer::ALL
                    .iter()
                    .position(|&l| l == span.layer)
                    .expect("every layer is listed");
                totals[slot] += self_ns;
            }
        }
        totals
    }

    /// Mean duration in ms of the spans named `name`, over set-up
    /// (`setup`) or over the measured ops; 0 when there are none.
    #[must_use]
    pub fn mean_ms(&self, name: &str, setup: bool) -> f64 {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name && (s.op == 0) == setup)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.duration_ns(), n + 1));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Renders the spans as JSON lines, one span per line, after a
    /// header line naming the run.
    #[must_use]
    pub fn to_jsonl(&self, header: &str) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (i, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                span.op,
                span.name,
                span.layer.name(),
                span.start_ns,
                span.end_ns,
            )
            .expect("writing to a String never fails");
        }
        out
    }
}
