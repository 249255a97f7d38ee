//! Observability layer for the BubbleZERO reproduction.
//!
//! `bz-obs` provides three pieces, all addressed by [`MetricKey`]s — a
//! `&'static str` literal for fixed instrumentation points or an owned
//! `String` for per-entity keys like `wsn.node.21.sent` — and all keyed to
//! the deterministic millisecond simulation clock rather than wall time:
//!
//! 1. **Spans** — [`Handle::span`] returns a guard borrowing the handle;
//!    closing it with [`SpanGuard::exit`] records the simulated duration
//!    (exported, deterministic) and, on [`Handle::global`], the
//!    wall-clock duration (summary table only). Spans nest; each records
//!    its depth at entry.
//! 2. **Metrics registry** — saturating [counters](Handle::counter_add),
//!    last-value [gauges](Handle::gauge_set), and fixed-bucket
//!    [histograms](Handle::observe) borrowing the `bz-wsn` bucketing
//!    idiom.
//! 3. **Exporters** — [`Handle::write_jsonl`] / [`Handle::write_csv`] for
//!    machines plus a human [`Handle::summary_table`]; long runs can
//!    switch to streaming export with [`Handle::stream_to`] (events are
//!    written through as they happen, unbounded by [`MAX_EVENTS`]), and
//!    [`Handle::write_events_from`] taps the buffered events from a
//!    cursor; formats are documented in `docs/OBSERVABILITY.md`.
//!
//! The API is **instance-first**: all state lives behind a [`Handle`], and
//! instrumented components (the event queue, the channel, the controllers,
//! the plant) carry the handle they record against. [`Handle::isolated`]
//! gives embedders — parallel sweep runs, unit tests — a private registry
//! with no shared mutable state; the process-global [`Handle::global`] is
//! what components use when no handle is supplied.
//!
//! Collection is off by default and gated behind one relaxed atomic load,
//! so fully instrumented hot paths cost nothing measurable when telemetry
//! is disabled. When it is on, a `'static` key resolves to its id by the
//! address of its text, and only the global handle, whose summary table
//! is printed, reads the wall clock (`docs/OBSERVABILITY.md`, "What a
//! record costs").
//!
//! # Example
//!
//! ```
//! let obs = bz_obs::Handle::isolated();
//! let tick = obs.span("core.control_tick", 5_000);
//! obs.counter_inc("wsn.packets.sent");
//! obs.gauge_set("thermal.chiller.radiant_w", 5_000, 142.5);
//! obs.observe("wsn.btadpt.send_period_s", 2.0);
//! tick.exit(5_010);
//!
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counters["wsn.packets.sent"], 1);
//! assert_eq!(snapshot.spans["core.control_tick"].sim_ms_total, 10);
//! // The global registry is untouched.
//! assert!(!bz_obs::Handle::global().same_registry(&obs));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handle;
mod hist;
mod key;
mod registry;
mod span;

pub use handle::Handle;
pub use hist::{FixedHistogram, DEFAULT_BUCKETS};
pub use key::MetricKey;
pub use registry::{json_escape, JsonF64, Registry, Snapshot, SpanStats, MAX_EVENTS};
pub use span::SpanGuard;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth_and_sim_duration() {
        let obs = Handle::isolated();
        let outer = obs.span("outer", 1_000);
        let inner = obs.span("inner", 1_200);
        inner.exit(1_300);
        outer.exit(2_000);

        let snapshot = obs.snapshot();
        assert_eq!(snapshot.spans["outer"].sim_ms_total, 1_000);
        assert_eq!(snapshot.spans["inner"].sim_ms_total, 100);
        let mut csv = Vec::new();
        obs.write_csv(&mut csv).unwrap();
        // Inner exits first, at depth 1; outer carries depth 0.
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "t_ms,kind,name,value,sim_ms,depth\n1200,span,inner,,100,1\n1000,span,outer,,1000,0\n"
        );
    }

    #[test]
    fn dropped_guard_still_counts_the_span() {
        let obs = Handle::isolated();
        {
            let _guard = obs.span("dropped", 500);
            // Early exit without `exit()`.
        }
        let stats = obs.snapshot().spans["dropped"];
        assert_eq!(stats.count, 1);
        assert_eq!(stats.sim_ms_total, 0);
    }

    #[test]
    fn exit_before_entry_time_saturates_to_zero() {
        let obs = Handle::isolated();
        obs.span("backwards", 1_000).exit(400);
        assert_eq!(obs.snapshot().spans["backwards"].sim_ms_total, 0);
    }

    #[test]
    fn facade_histogram_uses_default_buckets() {
        let obs = Handle::isolated();
        obs.observe("h", 3.0);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.histograms["h"].edges(), DEFAULT_BUCKETS);
        assert_eq!(snapshot.histograms["h"].count(), 1);
    }
}
