//! Allocation pin for the HDL machine check.
//!
//! Every customization parses its emitted bundle, lints it and checks
//! its cost against the `rtl` mirror. The parse lexes the text once and
//! keeps names as spans of one shared copy of it, the lints read the
//! identifiers that parse recorded, and diagnostics are formatted only
//! for a finding, so the check's heap traffic is mostly the IR's own
//! vectors. A counting `#[global_allocator]` pins it: the count is exact
//! for a given tree and does not depend on the host.
//!
//! This file holds exactly one test: the counter is process-global, so
//! a concurrently running sibling test would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsn_hdl::{check_agreement, generate, lint_modules, parse_modules};
use tsn_resource::ResourceConfig;

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

/// Allocations of parse + lint + cost agreement on the default bundle.
/// With one `String` per token and eager diagnostic strings the same
/// check made 2,364 (parse 1,313, lint 646, cost 405).
const PINNED: u64 = 363;

#[test]
fn machine_check_allocations_stay_at_their_pin() {
    let cfg = ResourceConfig::new();
    let text = generate(&cfg).expect("generates").concatenated();

    let before = ALLOCS.load(Ordering::Relaxed);
    let modules = parse_modules(&text).expect("parses");
    let findings = lint_modules(&modules);
    let agreement = check_agreement(&cfg, &modules);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(
        findings.is_empty(),
        "default bundle lints clean: {findings:?}"
    );
    assert_eq!(agreement, Ok(()));
    // 10 % headroom; re-pin when a change shrinks the count on purpose.
    assert!(
        allocs <= PINNED + PINNED / 10,
        "the machine check made {allocs} allocations, pinned at {PINNED} (+10 %)"
    );
}
