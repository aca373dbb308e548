//! Pins the heap a 10k-flow plant's template and network instance hold.
//!
//! Every container a template or an instance keeps is sized by what the
//! install program puts in it: switch tables by their installs, host
//! generator lists by their talkers, the program itself as flat arenas.
//! None is sized by a capacity knob or left with doubling slack. A
//! counting `#[global_allocator]` measures the live bytes that
//! `NetworkTemplate::new` and `instantiate()` leave behind, and the test
//! fails when either grows more than 5% over its pin — a capacity-sized
//! reserve or a boxed per-flow program comes back above that.
//!
//! The counts are requested bytes (`Layout::size`), so they do not depend
//! on the system allocator and are the same on every 64-bit host.
//!
//! This file holds exactly one test: the counter is process-global, so
//! a concurrently running sibling test would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use tsn_builder::plant::large_plant;
use tsn_sim::network::NetworkTemplate;

/// Tracks live heap bytes: acquisitions add their size, frees subtract.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Live bytes `NetworkTemplate::new` adds for `large_plant(10_000)`
/// (the topology and flow set it takes over are not counted).
const TEMPLATE_BYTES: isize = 742_474;
/// Live bytes one `instantiate()` of that template adds.
const INSTANCE_BYTES: isize = 4_030_352;
/// Growth over a pin that fails the test.
const HEADROOM: f64 = 0.05;

#[test]
fn plant_template_and_instance_heap_stay_at_their_pins() {
    let plant = large_plant(10_000).expect("plant builds");

    let before = live();
    let template = NetworkTemplate::new(plant.topology, plant.flows, &plant.offsets, plant.config)
        .expect("template builds");
    let template_bytes = live() - before;

    let before = live();
    let network = template.instantiate().expect("plant instantiates");
    let instance_bytes = live() - before;

    println!("template {template_bytes} B, instance {instance_bytes} B");
    for (what, bytes, pin) in [
        ("template", template_bytes, TEMPLATE_BYTES),
        ("instance", instance_bytes, INSTANCE_BYTES),
    ] {
        assert!(
            bytes as f64 <= pin as f64 * (1.0 + HEADROOM),
            "{what} heap {bytes} B is over its pin {pin} B + {:.0}%",
            HEADROOM * 100.0
        );
    }
    drop(network);
}
