//! Proof that the steady-state event loop is allocation-free.
//!
//! The hot path (pop event → handle → schedule successors) works
//! entirely in pre-sized state: dense `PortGrid`s, flow-indexed arena
//! vectors, capacity-capped host/gate queues, a reusable disposition
//! scratch buffer and `Copy` frames. A counting `#[global_allocator]`
//! pins that claim: after warmup, a 10k-event window must perform
//! **zero** heap allocations.
//!
//! Warmup is adaptive rather than a fixed step count. One-time
//! allocations front-load (host/gate queue rings start empty and grow to
//! their working set; a flow's first delivery allocates nothing, since
//! per-flow records are pre-sized moments and the latency histograms are
//! per class, see `analyzer_alloc.rs`), but
//! the calendar queue's per-bucket capacities keep being probed as slot
//! aliasing shifts phase across rotations, so the time-to-quiet is
//! scenario-dependent: the test steps in 10k-event windows until one is
//! allocation-free and fails if none shows up within a generous bound
//! (the scenario goes quiet within ~25 windows; the bound allows 200).
//!
//! This file holds exactly one test: the counter is process-global, so
//! a concurrently running sibling test would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowMap, FlowSet, RcFlowSpec, SimDuration, TsFlowSpec,
};

/// Counts every allocation entry point; frees are irrelevant to the
/// claim (the steady state neither grows nor shrinks the working set,
/// and counting only acquisitions keeps the check one-sided and
/// monotone).
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

/// Mixed TS/RC/BE ring — the golden-report scenario shape, so the
/// window exercises gating, shaping and host contention, not a toy
/// single-flow path.
fn scenario() -> (tsn_topology::Topology, FlowSet) {
    let topo = tsn_topology::presets::ring(6, 3).expect("ring builds");
    let hosts = topo.hosts();
    let mut flows = FlowSet::new();
    for id in 0..12u32 {
        let src = hosts[id as usize % hosts.len()];
        let dst = hosts[(id as usize + 1) % hosts.len()];
        flows.push(
            TsFlowSpec::new(
                FlowId::new(id),
                src,
                dst,
                SimDuration::from_millis(2),
                SimDuration::from_millis(8),
                64 + (id % 4) * 100,
            )
            .expect("valid ts flow")
            .into(),
        );
    }
    flows.push(
        RcFlowSpec::new(
            FlowId::new(100),
            hosts[0],
            hosts[2],
            DataRate::mbps(150),
            512,
        )
        .expect("valid rc flow")
        .into(),
    );
    flows.push(
        BeFlowSpec::new(
            FlowId::new(101),
            hosts[1],
            hosts[0],
            DataRate::mbps(300),
            1024,
        )
        .expect("valid be flow")
        .into(),
    );
    (topo, flows)
}

const WARMUP_EVENTS: u64 = 200_000;
const WINDOW_EVENTS: u64 = 10_000;
const MAX_WINDOWS: u64 = 200;

#[test]
fn steady_state_event_loop_is_allocation_free() {
    let (topo, flows) = scenario();
    let mut config = SimConfig::paper_defaults();
    // Long horizon: warmup plus every search window must end well
    // before drain-down.
    config.duration = SimDuration::from_millis(10_000);
    config.drain = SimDuration::from_millis(10);
    // Perfect sync: drifting-clock correction is cold-path bookkeeping,
    // not part of the per-event claim.
    config.sync = SyncSetup::Perfect;
    let mut network = Network::build(topo, flows, &FlowMap::new(), config).expect("network builds");

    for i in 0..WARMUP_EVENTS {
        assert!(network.step(), "warmup exhausted the event stream at {i}");
    }

    let mut clean_window = None;
    let mut trail = Vec::new();
    for window in 0..MAX_WINDOWS {
        let before = ALLOCS.load(Ordering::Relaxed);
        for i in 0..WINDOW_EVENTS {
            assert!(
                network.step(),
                "window {window} exhausted the event stream at {i}"
            );
        }
        let grew = ALLOCS.load(Ordering::Relaxed) - before;
        trail.push(grew);
        if grew == 0 {
            clean_window = Some(window);
            break;
        }
    }
    assert!(
        clean_window.is_some(),
        "no allocation-free {WINDOW_EVENTS}-event window within {MAX_WINDOWS} windows; \
         per-window allocation counts: {trail:?}"
    );

    // The windows measured a live simulation, not an idle or wedged one.
    let report = network.finish();
    assert!(report.ts_injected() > 0, "TS traffic flowed");
    assert_eq!(report.ts_lost(), 0, "scenario is lossless");
}
