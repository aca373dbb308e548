//! Proof that recording into a pre-sized analyzer never allocates.
//!
//! Per-flow records hold only latency moments (five scalars in a dense
//! arena) and the latency histograms are one per traffic class inside
//! the analyzer, so the first delivery of a flow has nothing to box. A
//! counting `#[global_allocator]` pins that: with the arenas sized for
//! every flow up front, one injection and one delivery per flow make
//! **zero** heap allocations.
//!
//! This file holds exactly one test: the counter is process-global, so
//! a concurrently running sibling test would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsn_sim::Analyzer;
use tsn_types::{FlowId, SimDuration, SimTime, TrafficClass};

/// Counts every allocation entry point; frees are irrelevant.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const FLOWS: u32 = 4000;

#[test]
fn first_deliveries_into_a_sized_analyzer_do_not_allocate() {
    let mut analyzer = Analyzer::with_flow_capacity(FLOWS as usize);
    let classes = TrafficClass::ALL;

    let before = ALLOCS.load(Ordering::Relaxed);
    for id in 0..FLOWS {
        let flow = FlowId::new(id);
        let class = classes[id as usize % classes.len()];
        let sent = SimTime::from_micros(u64::from(id));
        analyzer.note_injected(flow, class);
        analyzer.note_delivered(
            flow,
            class,
            sent,
            sent + SimDuration::from_nanos(1_000 + u64::from(id) * 97),
            Some(SimDuration::from_millis(1)),
        );
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(
        allocs, 0,
        "recording {FLOWS} flows' first deliveries allocated {allocs} times"
    );
    // The recording happened: every flow is tracked and every class's
    // histogram answers quantiles.
    assert_eq!(analyzer.flow_count(), FLOWS as usize);
    for class in classes {
        let stats = analyzer.class_latency(class);
        assert!(stats.count() > 0 && stats.p99().is_some(), "{class}");
    }
}
