//! The zero-cost-when-disabled guarantee, pinned with a counting allocator:
//! a disabled [`Telemetry`] handle must perform **zero heap allocations** on
//! the hot recording path — counters, gauges, histograms, spans, labels.
//! (The engine threads a handle through every pipeline stage; this test is
//! what lets it do so unconditionally instead of branching at every call
//! site.)
//!
//! The count is kept *per thread*: the test harness runs the tests of this
//! file concurrently, and a process-global counter would also see the
//! allocations the sibling test makes on its own thread inside the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treelineage_telemetry::Telemetry;

/// A pass-through allocator that counts allocation calls of the calling
/// thread.
struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown, after the slot is
        // gone, are simply not counted.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_handle_allocates_nothing() {
    let telemetry = Telemetry::disabled();
    // Warm up: the first thread-local / lazy-static touches of the process
    // are not what this test is about.
    drop(telemetry.span("warmup"));
    telemetry.counter_add("warmup", &[], 1);

    let before = allocations();
    for i in 0..10_000u64 {
        telemetry.counter_add("requests_total", &[("kind", "probability")], 1);
        telemetry.gauge_set("occupancy", &[], i as i64);
        telemetry.observe_ns("latency_ns", &[], i);
        let mut span = telemetry.span("stage");
        span.label("iteration", i);
        drop(span);
        drop(telemetry.clone());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated on the hot path"
    );
}

#[test]
fn enabled_handle_does_allocate() {
    // Sanity check that the counter actually observes telemetry work, so
    // the zero above is meaningful.
    let telemetry = Telemetry::enabled();
    let before = allocations();
    telemetry.counter_add("requests_total", &[("kind", "probability")], 1);
    drop(telemetry.span("stage"));
    assert!(allocations() > before, "counting allocator saw no activity");
}
