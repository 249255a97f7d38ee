//! The instance-first entry point: a cheaply clonable [`Handle`] owning
//! one [`Registry`] plus its enabled flag.
//!
//! Every recording operation in this crate goes through a `Handle`.
//! Components built without an explicit handle record into the
//! process-global [`Handle::global`]; embedders that need isolation —
//! parallel sweep runs, unit tests — create their own handle with
//! [`Handle::isolated`] and thread it through the components they build,
//! so concurrent runs never share mutable metric state.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::DEFAULT_BUCKETS;
use crate::key::MetricKey;
use crate::registry::{Registry, Snapshot};
use crate::span::SpanGuard;

/// The process-wide handle returned by [`Handle::global`].
static GLOBAL: OnceLock<Handle> = OnceLock::new();

/// A shared reference to one metrics registry and its enabled flag.
///
/// Cloning a `Handle` is an `Arc` clone: both clones record into the same
/// registry. Two handles created independently are fully isolated — this
/// is what gives parallel scenario runs byte-identical per-run exports
/// regardless of scheduling.
///
/// # Example
///
/// ```
/// let obs = bz_obs::Handle::isolated();
/// obs.counter_inc("wsn.packets.sent");
/// let span = obs.span("core.control_tick", 5_000);
/// span.exit(5_010);
/// let snapshot = obs.snapshot();
/// assert_eq!(snapshot.counters["wsn.packets.sent"], 1);
/// assert_eq!(snapshot.spans["core.control_tick"].sim_ms_total, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Handle {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    registry: Mutex<Registry>,
}

impl Handle {
    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                registry: Mutex::new(Registry::new()),
            }),
        }
    }

    /// A fresh, empty, **disabled** handle (recording calls are no-ops
    /// until [`Handle::enable`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_enabled(false)
    }

    /// A fresh, empty, **enabled** handle — the per-run isolation
    /// constructor used by the sweep runner and by tests.
    #[must_use]
    pub fn isolated() -> Self {
        Self::with_enabled(true)
    }

    /// The process-global handle (created disabled on first use).
    /// Components built without an explicit handle feed its registry.
    #[must_use]
    pub fn global() -> Self {
        GLOBAL.get_or_init(Self::new).clone()
    }

    /// True if `self` and `other` share the same registry.
    #[must_use]
    pub fn same_registry(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Turns metric collection on for this handle.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns metric collection off (already-recorded data is kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether collection is currently on. This is the one relaxed atomic
    /// load every disabled-path instrumentation call reduces to.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` against the registry.
    pub(crate) fn with_registry<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        let mut guard = match self.inner.registry.lock() {
            Ok(guard) => guard,
            // A panic mid-update can only leave partially-recorded
            // metrics, never corrupt state worth abandoning telemetry
            // over.
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    /// Clears all recorded metrics and events (the enabled flag is
    /// untouched).
    pub fn reset(&self) {
        self.with_registry(Registry::reset);
    }

    /// Adds `delta` to counter `name` (saturating). `name` is anything
    /// convertible to a [`MetricKey`] — a `&'static str` literal or an
    /// owned `String` for per-entity keys like `wsn.node.21.sent`.
    #[inline]
    pub fn counter_add(&self, name: impl Into<MetricKey>, delta: u64) {
        if self.is_enabled() {
            self.with_registry(|registry| registry.counter_add(name.into(), delta));
        }
    }

    /// Adds one to counter `name`.
    #[inline]
    pub fn counter_inc(&self, name: impl Into<MetricKey>) {
        self.counter_add(name, 1);
    }

    /// Adds `delta` to counter `name` without taking ownership of the
    /// key: the key is cloned only on the counter's first update. Callers
    /// that repeatedly publish a per-entity key (e.g. `wsn.node.21.sent`)
    /// hold the built key and call this to stay allocation-free.
    #[inline]
    pub fn counter_add_ref(&self, name: &MetricKey, delta: u64) {
        if self.is_enabled() {
            self.with_registry(|registry| registry.counter_add_ref(name, delta));
        }
    }

    /// Sets gauge `name` to `value` at simulation time `t_ms`.
    #[inline]
    pub fn gauge_set(&self, name: impl Into<MetricKey>, t_ms: u64, value: f64) {
        if self.is_enabled() {
            self.with_registry(|registry| registry.gauge_set(name.into(), t_ms, value));
        }
    }

    /// Observes `value` into histogram `name` over
    /// [`DEFAULT_BUCKETS`](crate::DEFAULT_BUCKETS).
    #[inline]
    pub fn observe(&self, name: impl Into<MetricKey>, value: f64) {
        self.observe_in(name, DEFAULT_BUCKETS, value);
    }

    /// Observes `value` into histogram `name`, creating it over `buckets`
    /// on first use (later calls keep the original buckets).
    #[inline]
    pub fn observe_in(&self, name: impl Into<MetricKey>, buckets: &'static [f64], value: f64) {
        if self.is_enabled() {
            self.with_registry(|registry| registry.observe(name.into(), buckets, value));
        }
    }

    /// Samples every counter as a timestamped event at simulation time
    /// `t_ms`. Call at a fixed simulated cadence (e.g. once per simulated
    /// minute) to put counter trajectories, not just totals, in the
    /// export.
    pub fn record_counters(&self, t_ms: u64) {
        if self.is_enabled() {
            self.with_registry(|registry| registry.record_counters(t_ms));
        }
    }

    /// Opens a span named `name` at simulation time `sim_now_ms`,
    /// recording into this handle's registry. Close it with
    /// [`SpanGuard::exit`]; see [`SpanGuard`] for drop semantics.
    #[must_use]
    pub fn span(&self, name: impl Into<MetricKey>, sim_now_ms: u64) -> SpanGuard {
        let sink = self.is_enabled().then(|| self.clone());
        SpanGuard::enter(name.into(), sim_now_ms, sink)
    }

    /// An owned copy of the registry state.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.with_registry(|registry| registry.snapshot())
    }

    /// Writes the registry as JSONL (see [`Registry::write_jsonl`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<()> {
        self.with_registry(|registry| registry.write_jsonl(out))
    }

    /// Number of events currently buffered (see
    /// [`Registry::events_len`]).
    #[must_use]
    pub fn events_len(&self) -> usize {
        self.with_registry(|registry| registry.events_len())
    }

    /// Writes buffered events from index `from` onward as JSONL lines and
    /// returns the new cursor (see [`Registry::write_events_from`]). This
    /// is the incremental telemetry tap: each tenant stream reader holds
    /// its own cursor and polls for the lines recorded since.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_events_from<W: Write>(&self, from: usize, out: W) -> io::Result<usize> {
        self.with_registry(|registry| registry.write_events_from(from, out))
    }

    /// Switches this handle's registry to streaming JSONL export: events
    /// are written to `sink` as they are recorded instead of being
    /// buffered (see [`Registry::stream_to`]). Pass a buffered writer —
    /// events arrive one line at a time.
    pub fn stream_to(&self, sink: Box<dyn Write + Send>) {
        self.with_registry(|registry| registry.stream_to(sink));
    }

    /// Ends streaming and writes the totals tail (see
    /// [`Registry::finish_stream`]).
    ///
    /// # Errors
    ///
    /// Returns the first error hit while streaming, or any error from the
    /// tail write.
    pub fn finish_stream(&self) -> io::Result<()> {
        self.with_registry(Registry::finish_stream)
    }

    /// Writes the registry's event stream as CSV (see
    /// [`Registry::write_csv`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_csv<W: Write>(&self, out: W) -> io::Result<()> {
        self.with_registry(|registry| registry.write_csv(out))
    }

    /// Renders the human-readable end-of-run summary of the registry.
    #[must_use]
    pub fn summary_table(&self) -> String {
        self.with_registry(|registry| registry.summary_table())
    }

    /// Serializes the registry state for checkpointing (see
    /// [`Registry::save_state`]).
    ///
    /// # Panics
    ///
    /// Panics if the registry is streaming; callers gate that combination
    /// up front.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        self.with_registry(|registry| registry.save_state(w));
    }

    /// Replaces the registry contents with previously saved state (see
    /// [`Registry::load_state`]). The enabled flag is untouched — it is
    /// runtime configuration, not simulation state.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        self.with_registry(|registry| registry.load_state(r))
    }
}

impl Default for Handle {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_handles_do_not_share_state() {
        let a = Handle::isolated();
        let b = Handle::isolated();
        a.counter_add("c", 3);
        b.counter_add("c", 7);
        assert_eq!(a.snapshot().counters["c"], 3);
        assert_eq!(b.snapshot().counters["c"], 7);
        assert!(!a.same_registry(&b));
    }

    #[test]
    fn counter_add_ref_matches_owned_updates() {
        let by_ref = Handle::isolated();
        let by_value = Handle::isolated();
        let key: MetricKey = format!("wsn.node.{}.sent", 21).into();
        for _ in 0..5 {
            by_ref.counter_add_ref(&key, 1);
            by_value.counter_inc(format!("wsn.node.{}.sent", 21));
        }
        by_ref.counter_add_ref(&key, 3);
        by_value.counter_add(format!("wsn.node.{}.sent", 21), 3);
        assert_eq!(
            by_ref.snapshot().counters["wsn.node.21.sent"],
            by_value.snapshot().counters["wsn.node.21.sent"]
        );
    }

    #[test]
    fn clones_share_the_registry() {
        let a = Handle::isolated();
        let b = a.clone();
        a.counter_inc("c");
        b.counter_inc("c");
        assert_eq!(a.snapshot().counters["c"], 2);
        assert!(a.same_registry(&b));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let handle = Handle::new();
        handle.counter_inc("c");
        handle.gauge_set("g", 0, 1.0);
        handle.observe("h", 1.0);
        handle.span("s", 0).exit(10);
        let snapshot = handle.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert_eq!(handle.events_len(), 0);
        assert!(snapshot.spans.is_empty());
    }

    #[test]
    fn spans_record_into_their_handle_only() {
        let a = Handle::isolated();
        let b = Handle::isolated();
        let span = a.span("s", 100);
        span.exit(250);
        assert_eq!(a.snapshot().spans["s"].sim_ms_total, 150);
        assert!(b.snapshot().spans.is_empty());
    }

    #[test]
    fn parallel_handles_export_identically_to_serial() {
        // The isolation guarantee behind the sweep runner: the bytes a run
        // exports depend only on what was recorded against its handle,
        // never on sibling threads.
        let record = |handle: &Handle| {
            for i in 0..50u64 {
                handle.counter_inc("packets");
                handle.gauge_set("depth", i, i as f64);
            }
            handle.record_counters(50);
            let mut bytes = Vec::new();
            handle.write_jsonl(&mut bytes).unwrap();
            bytes
        };
        let serial = record(&Handle::isolated());
        let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| record(&Handle::isolated())))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for bytes in outputs {
            assert_eq!(bytes, serial);
        }
    }
}
