//! Scoped timing spans keyed to the deterministic simulation clock.

use std::cell::Cell;
use std::time::Instant;

use crate::handle::Handle;
use crate::key::MetricKey;

thread_local! {
    /// Current span nesting depth on this thread. Depth is a per-thread
    /// property by construction: a scenario run executes on one thread,
    /// and RAII guarantees every guard restores the depth it took, so
    /// parallel runs on separate threads each nest from zero.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard for one span occurrence, created by [`Handle::span`].
///
/// Call [`SpanGuard::exit`] with the current simulation time to record the
/// simulated duration, and on [`Handle::global`], the one handle that
/// reads the wall clock, the wall-clock one too. If the guard is instead
/// dropped (early return, panic unwinding), the span is still recorded
/// with a simulated duration of zero, so span counts stay truthful even on
/// error paths.
///
/// The guard borrows the handle it records into, so opening a span
/// clones nothing; a caller whose span must outlive a `&mut self` call
/// opens it on a handle clone taken once outside the hot loop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    name: MetricKey,
    /// Wall-clock entry instant; `None` for disabled guards and for
    /// handles without a wall-clock consumer, which skip the clock reads
    /// (about 40 ns each) and record a wall time of zero.
    wall_start: Option<Instant>,
    sim_start_ms: u64,
    depth: u32,
    /// The handle to record into; `None` for guards minted while
    /// telemetry was disabled, whose exits are no-ops.
    sink: Option<&'a Handle>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(name: MetricKey, sim_now_ms: u64, sink: Option<&'a Handle>) -> Self {
        let depth = if sink.is_some() {
            DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth
            })
        } else {
            0
        };
        Self {
            name,
            wall_start: sink
                .is_some_and(Handle::reads_wall_clock)
                .then(Instant::now),
            sim_start_ms: sim_now_ms,
            depth,
            sink,
        }
    }

    /// Ends the span at simulation time `sim_now_ms`, recording its wall
    /// and simulated durations in the registry it was opened against.
    pub fn exit(mut self, sim_now_ms: u64) {
        self.finish(sim_now_ms.saturating_sub(self.sim_start_ms));
    }

    fn finish(&mut self, sim_ms: u64) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let wall_ns = self
            .wall_start
            .map_or(0, |started| started.elapsed().as_nanos());
        let name = std::mem::take(&mut self.name);
        sink.with_registry(|registry| {
            registry.span_complete(name, self.sim_start_ms, sim_ms, self.depth, wall_ns);
        });
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        // Fallback for guards not closed with `exit`: the simulated
        // duration is unknown at drop time, so record it as zero.
        self.finish(0);
    }
}
