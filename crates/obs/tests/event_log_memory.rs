//! A buffered event must cost its encoded bytes, not a fixed record.
//!
//! A hosted tenant keeps its whole event log in memory, so the log's
//! live heap per event bounds how many tenants one server holds. The
//! log stores events in the keyed checkpoint coding, where an event that
//! repeats its key's previous payload in the same block keeps only its
//! key and time: about 4.8 bytes an event for a trial tenant's mix,
//! against 6.6 without the repeat tag. The global allocator here counts
//! live bytes, the unused capacity of every buffer included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use bz_obs::Registry;

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own pointer
// and layout, so `System` upholds the `GlobalAlloc` contract; the
// counter is only arithmetic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `alloc` above
        // (that is, from `System`) with this same `layout`.
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const EVENTS: usize = 100_000;

/// One simulated second of a trial tenant's telemetry: the plant's
/// nested step spans and the chiller gauges, and every fifth second the
/// control tick with its supervisor and queue gauges.
fn record_second(registry: &mut Registry, second: u64) {
    let t_ms = second * 1_000;
    registry.span_complete("thermal.zones.step", t_ms + 1_000, 0, 2, 0);
    registry.span_complete("thermal.panels.step", t_ms + 1_000, 0, 2, 0);
    registry.span_complete("thermal.plant.step", t_ms, 1_000, 1, 0);
    registry.gauge_set(
        "thermal.chiller.radiant_w",
        t_ms,
        75.0 + (second % 17) as f64 / 3.0,
    );
    registry.gauge_set(
        "thermal.chiller.vent_w",
        t_ms,
        1_251.687 - (second % 11) as f64,
    );
    if second.is_multiple_of(5) {
        registry.gauge_set("supervisor.safe_mode.panel0", t_ms, 0.0);
        registry.gauge_set("supervisor.safe_mode.panel1", t_ms, 0.0);
        registry.gauge_set("simcore.event_queue.depth", t_ms, 43.0);
        registry.span_complete("core.control_tick", t_ms, 0, 1, 0);
    }
    registry.span_complete("core.step_second", t_ms, 1_000, 0, 0);
}

#[test]
fn a_buffered_event_costs_at_most_seven_live_heap_bytes() {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let mut registry = Registry::new();
    let mut second = 0;
    while registry.events_len() < EVENTS {
        record_second(&mut registry, second);
        second += 1;
        if second.is_multiple_of(60) {
            // The minute's counter sample: one event per sensor node and
            // per network and supervisor counter.
            for node in 0..32u64 {
                registry.counter_add(format!("wsn.node.{node}.sent"), 50);
            }
            for name in [
                "wsn.packets.sent",
                "wsn.packets.delivered",
                "supervisor.accepted",
            ] {
                registry.counter_add(name, 1_100);
            }
            registry.record_counters(second * 1_000);
        }
    }
    let live = LIVE_BYTES.load(Ordering::SeqCst) - before;
    let per_event = live as f64 / registry.events_len() as f64;
    assert!(
        per_event <= 7.0,
        "{per_event:.2} live heap bytes per buffered event"
    );
}
