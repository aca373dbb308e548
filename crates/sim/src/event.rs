//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! The default backend is a **calendar queue** (R. Brown, CACM 1988): a
//! circular array of time buckets, each one bucket-width of simulated
//! nanoseconds wide, with O(1) amortized schedule/pop for the
//! roughly-uniform event distributions a network simulation produces.
//! A [`BinaryHeap`] reference backend is kept selectable so equivalence
//! can be asserted in tests — both backends realize the same total order
//! `(at, seq)` (earliest time first, insertion FIFO among equal times),
//! so the pop sequence, and therefore every simulation report, is
//! byte-identical whichever backend runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tsn_topology::LinkId;
use tsn_types::{EthernetFrame, NodeId, PortId, SimTime};

/// What can happen in the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A frame finished arriving at `node` through `port`.
    FrameArrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on that node.
        port: PortId,
        /// The frame.
        frame: EthernetFrame,
    },
    /// A transmitter should try to send: a switch egress port or a
    /// host NIC (whose one port is port 0).
    Kick {
        /// The switch or host.
        node: NodeId,
        /// Its egress port.
        port: PortId,
    },
    /// A host should inject the next frame of one of its generators.
    Inject {
        /// The host.
        node: NodeId,
        /// Generator index local to the host.
        generator: usize,
    },
    /// A transmission segment on `(node, port)` finished. `gen` guards
    /// against frames that were preempted mid-flight (802.3br): a
    /// preemption bumps the port's generation, turning the stale
    /// completion into a no-op.
    TxComplete {
        /// Transmitting node.
        node: NodeId,
        /// Its egress port.
        port: PortId,
        /// Generation the segment was started under.
        gen: u64,
    },
    /// Fault injection: the link goes dark. Frames in flight are lost;
    /// routes are recomputed around it.
    LinkDown {
        /// The failing link.
        link: LinkId,
    },
    /// Fault injection: the link is repaired; routes are recomputed to
    /// use it again.
    LinkUp {
        /// The restored link.
        link: LinkId,
    },
}

/// One scheduled event. Ordering: earliest time first; FIFO among equal
/// times (via an insertion sequence number) so runs are deterministic.
#[derive(Debug, Clone)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Smallest number of buckets a calendar keeps.
const MIN_BUCKETS: usize = 64;
/// Initial bucket width: 2^10 ns ≈ 1 µs, a reasonable guess for frame
/// serialization timescales; resizes re-estimate it from the live set.
const INITIAL_SHIFT: u32 = 10;

/// A maximal group of equal-timestamp events inside one bucket, kept in
/// ascending-`seq` order: the earliest entry (smallest seq) pops from the
/// front, inserts (globally monotone seq) push onto the back.
#[derive(Debug, Clone)]
struct Run {
    at: SimTime,
    /// `(seq, event)` pairs, ascending by seq. Never empty while the run
    /// is in a bucket.
    events: std::collections::VecDeque<(u64, Event)>,
}

/// The calendar-queue backend: `buckets[(at >> shift) & mask]` holds the
/// events of one bucket-width time slice (and of every slice that aliases
/// onto it one full rotation later).
///
/// Each bucket is a vector of [`Run`]s sorted *descending* by timestamp,
/// so the earliest run sits at the back. Grouping by distinct timestamp
/// is what makes slot-synchronized workloads (CQF at scale) cheap: those
/// pile thousands of equal-time events into one bucket, and with a flat
/// sorted container every insertion at an older timestamp would memmove
/// the whole newer-time pile (measured 103M element moves over a 1.27M
/// event run on the 100k-flow plant — the single largest cost in the
/// profile). With runs, an insert binary-searches a handful of run
/// headers and then pushes onto the matching run's deque in O(1); only
/// header-sized entries ever shift. Emptied run deques park in `pool`
/// and are recycled, so the steady state allocates nothing.
#[derive(Debug, Clone)]
struct CalendarQueue {
    buckets: Vec<Vec<Run>>,
    /// Empty, capacity-retaining deques recycled across runs.
    pool: Vec<std::collections::VecDeque<(u64, Event)>>,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: usize,
    /// Bucket width is `2^shift` nanoseconds.
    shift: u32,
    /// Scan cursor: no pending event lives in a slot before `cur_slot`
    /// (slot = `at >> shift`).
    cur_slot: u64,
    /// Pending events.
    len: usize,
    /// Pending runs (distinct timestamps). Bucket-count sizing follows
    /// this, not `len`: a million events at one timestamp are one run
    /// and need one bucket.
    runs: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            mask: MIN_BUCKETS - 1,
            shift: INITIAL_SHIFT,
            cur_slot: 0,
            len: 0,
            runs: 0,
        }
    }

    fn slot_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    fn insert(&mut self, s: Scheduled) {
        let slot = self.slot_of(s.at);
        if self.len == 0 || slot < self.cur_slot {
            self.cur_slot = slot;
        }
        let Scheduled { at, seq, event } = s;
        let bucket = &mut self.buckets[(slot as usize) & self.mask];
        // Runs are unique per timestamp (equal times always hash to the
        // same bucket), sorted descending by `at`.
        match bucket.binary_search_by(|run| at.cmp(&run.at)) {
            Ok(i) => {
                // Scheduling assigns globally monotone seqs, so the new
                // entry is always the run's newest.
                let run = &mut bucket[i];
                debug_assert!(run.events.back().is_none_or(|&(q, _)| q < seq));
                run.events.push_back((seq, event));
            }
            Err(i) => {
                let mut events = self.pool.pop().unwrap_or_default();
                events.push_back((seq, event));
                bucket.insert(i, Run { at, events });
                self.runs += 1;
            }
        }
        self.len += 1;
        if self.runs > self.buckets.len() * 2 {
            self.grow();
        }
    }

    fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let mut scanned = 0usize;
        loop {
            let idx = (self.cur_slot as usize) & self.mask;
            let shift = self.shift;
            if let Some(run) = self.buckets[idx].last_mut() {
                if run.at.as_nanos() >> shift == self.cur_slot {
                    let at = run.at;
                    let (seq, event) = run.events.pop_front().expect("runs are never empty");
                    if run.events.is_empty() {
                        let run = self.buckets[idx].pop().expect("just matched");
                        self.pool.push(run.events);
                        self.runs -= 1;
                    }
                    self.len -= 1;
                    if nbuckets > MIN_BUCKETS && self.runs < nbuckets / 8 {
                        self.shrink();
                    }
                    return Some(Scheduled { at, seq, event });
                }
            }
            self.cur_slot += 1;
            scanned += 1;
            if scanned >= nbuckets {
                // A full rotation found nothing: all events are at least
                // one rotation ahead. Jump straight to the earliest one —
                // each bucket's back run is its minimum, and equal times
                // always share a bucket, so comparing times alone
                // identifies the global minimum.
                let min_at = self
                    .buckets
                    .iter()
                    .filter_map(|b| b.last())
                    .map(|run| run.at)
                    .min()
                    .expect("len > 0 means some bucket is non-empty");
                self.cur_slot = self.slot_of(min_at);
                scanned = 0;
            }
        }
    }

    /// The earliest pending key, or `None`. O(buckets) — not on the hot
    /// path (the simulator only pops).
    fn peek_time(&self) -> Option<SimTime> {
        self.buckets
            .iter()
            .filter_map(|b| b.last())
            .map(|run| run.at)
            .min()
    }

    fn grow(&mut self) {
        self.rebucket(self.buckets.len() * 2);
    }

    fn shrink(&mut self) {
        self.rebucket((self.buckets.len() / 2).max(MIN_BUCKETS));
    }

    /// Re-buckets every pending run into `nbuckets` buckets, picking a
    /// new bucket width from the live set's average run spacing. Runs
    /// move whole — their deques (and the events inside) never shift.
    fn rebucket(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.next_power_of_two().max(MIN_BUCKETS);
        let mut pending: Vec<Run> = Vec::with_capacity(self.runs);
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        // Width heuristic: ~2 distinct timestamps per bucket-width over
        // the pending span keeps both the per-bucket run search and the
        // empty-bucket scan cheap. Clamp so a width of zero or absurd
        // sparsity cannot happen.
        let (min_at, max_at) = pending.iter().fold((u64::MAX, 0u64), |(lo, hi), run| {
            let ns = run.at.as_nanos();
            (lo.min(ns), hi.max(ns))
        });
        let span = max_at.saturating_sub(min_at);
        if span > 0 && !pending.is_empty() {
            let target_width = (span * 2 / pending.len() as u64).max(1);
            self.shift = (63 - target_width.leading_zeros()).min(40);
        }
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
            self.mask = nbuckets - 1;
        }
        self.cur_slot = pending
            .iter()
            .map(|run| run.at)
            .min()
            .map_or(0, |at| at.as_nanos() >> self.shift);
        for run in pending {
            let slot = run.at.as_nanos() >> self.shift;
            let bucket = &mut self.buckets[(slot as usize) & self.mask];
            let pos = bucket
                .binary_search_by(|probe| run.at.cmp(&probe.at))
                .unwrap_err();
            bucket.insert(pos, run);
        }
    }
}

#[derive(Debug, Clone)]
enum Backend {
    Calendar(CalendarQueue),
    Heap(BinaryHeap<Scheduled>),
}

/// Deterministic future-event list.
///
/// # Example
///
/// ```
/// use tsn_sim::event::{Event, EventQueue};
/// use tsn_types::{NodeId, PortId, SimTime};
///
/// let mut q = EventQueue::new();
/// let port = PortId::new(0);
/// q.schedule(SimTime::from_micros(5), Event::Kick { node: NodeId::new(1), port });
/// q.schedule(SimTime::from_micros(2), Event::Kick { node: NodeId::new(0), port });
/// let (at, ev) = q.pop().expect("two events queued");
/// assert_eq!(at, SimTime::from_micros(2));
/// assert!(matches!(ev, Event::Kick { node, .. } if node == NodeId::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
    scheduled_total: u64,
    len: usize,
    high_water: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            backend: Backend::Calendar(CalendarQueue::new()),
            next_seq: 0,
            scheduled_total: 0,
            len: 0,
            high_water: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty calendar queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Moves every pending event, `(time, seq)` key included, onto the
    /// reference `BinaryHeap` backend. Counters and sequence numbers
    /// carry over, so the queue pops — and a run reports — exactly as
    /// the calendar would have: the differential reference for it.
    #[must_use]
    pub fn into_reference(mut self) -> Self {
        if let Backend::Calendar(cal) = &mut self.backend {
            let mut heap = BinaryHeap::with_capacity(self.len);
            while let Some(s) = cal.pop() {
                heap.push(s);
            }
            self.backend = Backend::Heap(heap);
        }
        self
    }

    /// Schedules `event` at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        let s = Scheduled { at, seq, event };
        match &mut self.backend {
            Backend::Calendar(cal) => cal.insert(s),
            Backend::Heap(heap) => heap.push(s),
        }
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let s = match &mut self.backend {
            Backend::Calendar(cal) => cal.pop(),
            Backend::Heap(heap) => heap.pop(),
        }?;
        self.len -= 1;
        Some((s.at, s.event))
    }

    /// The time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Calendar(cal) => cal.peek_time(),
            Backend::Heap(heap) => heap.peek().map(|s| s.at),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (for reports).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Most events simultaneously pending over the queue's lifetime.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_types::rng::SplitMix64;

    fn kick(n: u32) -> Event {
        Event::Kick {
            node: NodeId::new(n),
            port: PortId::new(0),
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        for mut q in [EventQueue::new(), EventQueue::new().into_reference()] {
            q.schedule(SimTime::from_micros(30), kick(3));
            q.schedule(SimTime::from_micros(10), kick(1));
            q.schedule(SimTime::from_micros(20), kick(2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(t, _)| t.as_micros())
                .collect();
            assert_eq!(order, vec![10, 20, 30]);
        }
    }

    #[test]
    fn equal_times_pop_in_fifo_order() {
        for mut q in [EventQueue::new(), EventQueue::new().into_reference()] {
            let t = SimTime::from_micros(7);
            for n in 0..5 {
                q.schedule(t, kick(n));
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Kick { node, .. } => node.index(),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for mut q in [EventQueue::new(), EventQueue::new().into_reference()] {
            q.schedule(SimTime::from_micros(1), kick(0));
            assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn counts_total_scheduled_and_high_water() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(SimTime::from_micros(i), kick(i as u32));
        }
        while q.pop().is_some() {}
        assert_eq!(q.scheduled_total(), 4);
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    fn sparse_events_pop_across_rotations() {
        // Events much further apart than buckets × width force the
        // full-rotation fallback and the min-jump.
        let mut q = EventQueue::new();
        for i in (0..16u64).rev() {
            q.schedule(SimTime::from_millis(i * 500), kick(i as u32));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        let expect: Vec<u64> = (0..16).map(|i| i * 500_000).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn resize_preserves_order() {
        // Enough events to trigger growth, popped interleaved with
        // schedules to exercise shrink too.
        let mut q = EventQueue::new();
        for i in 0..2000u64 {
            q.schedule(SimTime::from_nanos(i * 37 % 5000), kick(0));
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop order regressed: {t:?} after {last:?}");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 2000);
    }

    /// The satellite equivalence test: 10k mixed schedule/pop operations
    /// driven by a deterministic PRNG must pop in exactly the same order
    /// from the calendar queue as from the reference heap.
    #[test]
    fn calendar_matches_reference_heap_over_randomized_ops() {
        let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
        let mut cal = EventQueue::new();
        let mut heap = EventQueue::new().into_reference();
        // A loosely advancing clock so schedules mimic a simulation:
        // mostly near-future, occasionally far ahead, with plenty of
        // exact ties.
        let mut clock: u64 = 0;
        for op in 0..10_000u32 {
            let roll = rng.gen_range(100);
            if roll < 60 {
                // Schedule 1–3 events.
                for _ in 0..=rng.gen_range(3) {
                    let horizon = match rng.gen_range(10) {
                        0 => 10_000_000, // rare far-future event
                        1..=3 => 0,      // exact tie with the clock
                        _ => 65_000,     // typical: within a slot or two
                    };
                    let at = SimTime::from_nanos(if horizon == 0 {
                        clock
                    } else {
                        clock + rng.gen_range(horizon)
                    });
                    let ev = kick(op);
                    cal.schedule(at, ev.clone());
                    heap.schedule(at, ev);
                }
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at op {op}");
                if let Some((t, _)) = a {
                    clock = clock.max(t.as_nanos());
                }
            }
        }
        // Drain both completely.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence during drain");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.scheduled_total(), heap.scheduled_total());
    }

    #[test]
    fn a_queue_moved_to_the_reference_keeps_its_order_and_counters() {
        let mut cal = EventQueue::new();
        for n in 0..50u32 {
            cal.schedule(SimTime::from_nanos(u64::from(n % 7) * 1_000), kick(n));
        }
        cal.pop();
        let mut heap = cal.clone().into_reference();
        assert_eq!(heap.high_water(), cal.high_water());
        for n in 50..60u32 {
            let at = SimTime::from_nanos(u64::from(n % 3) * 1_000);
            cal.schedule(at, kick(n));
            heap.schedule(at, kick(n));
        }
        while let Some(event) = cal.pop() {
            assert_eq!(heap.pop(), Some(event));
        }
        assert!(heap.is_empty());
        assert_eq!(heap.scheduled_total(), cal.scheduled_total());
    }
}
