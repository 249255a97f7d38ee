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
/// Call [`SpanGuard::exit`] with the current simulation time to record both
/// the wall-clock and simulated durations. If the guard is instead dropped
/// (early return, panic unwinding), the span is still recorded with a
/// simulated duration of zero, so span counts stay truthful even on error
/// paths.
#[derive(Debug)]
pub struct SpanGuard {
    name: MetricKey,
    /// Wall-clock entry instant; `None` for disabled guards, which skip
    /// the clock read entirely — a disabled span must cost nothing on
    /// the simulation hot path.
    wall_start: Option<Instant>,
    sim_start_ms: u64,
    depth: u32,
    /// The registry to record into; `None` for guards minted while
    /// telemetry was disabled, whose exits are no-ops.
    sink: Option<Handle>,
}

impl SpanGuard {
    pub(crate) fn enter(name: MetricKey, sim_now_ms: u64, sink: Option<Handle>) -> Self {
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
            wall_start: sink.is_some().then(Instant::now),
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

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // Fallback for guards not closed with `exit`: the simulated
        // duration is unknown at drop time, so record it as zero.
        self.finish(0);
    }
}
