//! Restoring a registry must not grow memory for good.
//!
//! A histogram over a non-default edge set restores with its own copy of
//! the edges. That copy must be freed with the histogram, so a service
//! that restores such a snapshot over and over (`POST
//! /tenants/{name}/restore`) holds the same live heap after each restore
//! is dropped. The global allocator here counts live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use bz_obs::{Registry, DEFAULT_BUCKETS};

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

const CUSTOM_EDGES: &[f64] = &[-1.0, 0.0, 0.25, 1e9];

#[test]
fn restoring_custom_edges_a_thousand_times_leaves_live_bytes_unchanged() {
    let mut source = Registry::new();
    source.observe("custom.buckets", CUSTOM_EDGES, 0.1);
    source.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
    source.gauge_set("g", 1, 1.5);
    let mut w = bz_state::Writer::new();
    source.save_state(&mut w);
    let bytes = w.into_bytes();
    let restore_and_drop = || {
        let mut restored = Registry::new();
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();
        assert_eq!(
            restored.snapshot().histograms["custom.buckets"].edges(),
            CUSTOM_EDGES
        );
    };
    // The first round may initialize process-wide state.
    restore_and_drop();
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        restore_and_drop();
    }
    assert_eq!(LIVE_BYTES.load(Ordering::SeqCst), before);
}
