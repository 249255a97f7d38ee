//! The metrics registry: named counters, gauges, histograms, span
//! aggregates, and the timestamped event stream behind the exporters.
//!
//! Storage is interned. A registry keeps one [`KeyTable`] entry per
//! distinct key: the key text, its JSON-escaped form, and every aggregate
//! recorded under it. The event stream is a vector of fixed 24-byte
//! [`Record`]s that name their key by table id, so a buffered event costs
//! the same whether its key was a literal, a `format!`-built string, or a
//! key restored from a checkpoint. [`Event`]s are materialized only for
//! [`Registry::snapshot`]; every exporter writes straight from the
//! records.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use bz_state::{Persist, Reader, StateError, Writer};

use crate::hist::FixedHistogram;
use crate::key::MetricKey;

/// Hard cap on buffered events; beyond it events are counted but dropped,
/// so a runaway run degrades to totals-only instead of exhausting memory.
pub const MAX_EVENTS: usize = 2_000_000;

/// One timestamped entry in the exported stream. All fields are functions
/// of the deterministic simulation alone — never of wall-clock time — so a
/// seeded run exports byte-identical events every time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A counter's value sampled at a sim instant (see
    /// [`Registry::record_counters`]).
    Counter {
        /// Metric key.
        name: MetricKey,
        /// Simulation time of the sample, ms.
        t_ms: u64,
        /// Counter value at that instant.
        value: u64,
    },
    /// A gauge update.
    Gauge {
        /// Metric key.
        name: MetricKey,
        /// Simulation time of the update, ms.
        t_ms: u64,
        /// The new gauge value.
        value: f64,
    },
    /// A completed span.
    Span {
        /// Span key.
        name: MetricKey,
        /// Simulation time at span entry, ms.
        t_ms: u64,
        /// Simulated duration covered by the span, ms.
        sim_ms: u64,
        /// Nesting depth at entry (0 = outermost).
        depth: u32,
    },
}

/// Aggregate statistics of one span key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total simulated time covered, ms.
    pub sim_ms_total: u64,
    /// Total wall-clock time spent, ns. **Not exported to JSONL/CSV** —
    /// wall time is nondeterministic and lives only in the summary table.
    pub wall_ns_total: u128,
    /// Largest single wall-clock duration, ns.
    pub wall_ns_max: u128,
}

/// An owned, inspectable copy of the registry state (see
/// [`Handle::snapshot`](crate::Handle::snapshot)).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals by key.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Last-set gauge values by key.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Histograms by key.
    pub histograms: BTreeMap<MetricKey, FixedHistogram>,
    /// Span aggregates by key.
    pub spans: BTreeMap<MetricKey, SpanStats>,
    /// Buffered events in record order.
    pub events: Vec<Event>,
    /// Events discarded after [`MAX_EVENTS`] was reached.
    pub dropped_events: u64,
}

/// What a [`Record`] is. The discriminants are the checkpoint tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter = 0,
    Gauge = 1,
    Span = 2,
}

/// Key ids take the low 30 bits of [`Record::key_kind`], the [`Kind`] the
/// top two. An interned key costs more than 64 bytes, so a registry would
/// hold over 64 GiB of keys before reaching the limit.
const KIND_SHIFT: u32 = 30;

/// Most distinct keys one registry can intern.
const MAX_KEYS: usize = 1 << KIND_SHIFT;

/// One buffered event, naming its key by [`KeyTable`] id.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Simulation time of the event, ms.
    t_ms: u64,
    /// Counter value, gauge bit pattern, or span `sim_ms`.
    value: u64,
    /// Key id and [`Kind`], packed (see [`KIND_SHIFT`]).
    key_kind: u32,
    /// Span nesting depth at entry; 0 for counters and gauges.
    depth: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 24);

impl Record {
    fn new(kind: Kind, id: usize, t_ms: u64, value: u64, depth: u32) -> Self {
        Self {
            t_ms,
            value,
            key_kind: id as u32 | (kind as u32) << KIND_SHIFT,
            depth,
        }
    }

    fn id(self) -> usize {
        (self.key_kind & (MAX_KEYS as u32 - 1)) as usize
    }

    fn kind(self) -> Kind {
        match self.key_kind >> KIND_SHIFT {
            0 => Kind::Counter,
            1 => Kind::Gauge,
            _ => Kind::Span,
        }
    }
}

/// The smallest checkpoint encoding of one event: tag, empty key, `t_ms`,
/// value. Bounds the record capacity reserved for a decoded length.
const MIN_EVENT_BYTES: usize = 1 + 8 + 8 + 8;

/// One interned key with every aggregate recorded under it.
#[derive(Debug)]
struct Slot {
    key: MetricKey,
    /// The key escaped for a JSON string literal, kept only when that
    /// differs from the key text.
    escaped: Option<Box<str>>,
    counter: Option<u64>,
    gauge: Option<f64>,
    histogram: Option<Box<FixedHistogram>>,
    span: Option<Box<SpanStats>>,
}

impl Slot {
    /// The key as it appears inside a JSON string literal.
    fn json(&self) -> &str {
        self.escaped.as_deref().unwrap_or(self.key.as_str())
    }
}

/// The registry's distinct keys: each is stored once, with its id in
/// insertion order and an index in key-text order.
#[derive(Debug, Default)]
struct KeyTable {
    /// Key text → id, in key-text order: the order of every totals
    /// section and of every checkpointed map.
    index: BTreeMap<MetricKey, u32>,
    /// Keys and aggregates by id.
    slots: Vec<Slot>,
}

impl KeyTable {
    /// The id of `key`, interning a clone of it on first use.
    fn id(&mut self, key: &MetricKey) -> usize {
        match self.index.get(key) {
            Some(&id) => id as usize,
            None => self.insert(key.clone()),
        }
    }

    /// The id of the key spelled `text`, interning a copy on first use.
    fn id_of_text(&mut self, text: &str) -> usize {
        match self.index.get(text) {
            Some(&id) => id as usize,
            None => self.insert(MetricKey::from(text.to_owned())),
        }
    }

    fn insert(&mut self, key: MetricKey) -> usize {
        let id = self.slots.len();
        assert!(id < MAX_KEYS, "a registry interns at most {MAX_KEYS} keys");
        let escaped = json_escape(key.as_str());
        self.slots.push(Slot {
            escaped: (escaped != key.as_str()).then(|| escaped.into_boxed_str()),
            key: key.clone(),
            counter: None,
            gauge: None,
            histogram: None,
            span: None,
        });
        self.index.insert(key, id as u32);
        id
    }

    /// Every slot, in key-text order.
    fn sorted(&self) -> impl Iterator<Item = &Slot> {
        self.index.values().map(|&id| &self.slots[id as usize])
    }

    /// The owned [`Event`] a record stands for.
    fn event(&self, record: Record) -> Event {
        let name = self.slots[record.id()].key.clone();
        let t_ms = record.t_ms;
        match record.kind() {
            Kind::Counter => Event::Counter {
                name,
                t_ms,
                value: record.value,
            },
            Kind::Gauge => Event::Gauge {
                name,
                t_ms,
                value: f64::from_bits(record.value),
            },
            Kind::Span => Event::Span {
                name,
                t_ms,
                sim_ms: record.value,
                depth: record.depth,
            },
        }
    }

    /// Writes one checkpointed totals map — the encoding of a
    /// `BTreeMap<MetricKey, T>` over the keys that hold `get`'s aggregate.
    fn save_section<T: Persist>(&self, w: &mut Writer, get: impl Fn(&Slot) -> Option<&T>) {
        w.put_len(self.slots.iter().filter(|slot| get(slot).is_some()).count());
        for slot in self.sorted() {
            if let Some(value) = get(slot) {
                w.put_str(slot.key.as_str());
                value.save(w);
            }
        }
    }

    /// Reads one map written by [`KeyTable::save_section`]; a repeated key
    /// keeps its last value, as decoding into a map would.
    fn load_section<T: Persist>(
        &mut self,
        r: &mut Reader<'_>,
        set: impl Fn(&mut Slot, T),
    ) -> Result<(), StateError> {
        for _ in 0..r.take_len()? {
            let id = self.id_of_text(r.take_str()?);
            set(&mut self.slots[id], T::load(r)?);
        }
        Ok(())
    }
}

/// An open streaming JSONL destination (see [`Registry::stream_to`]).
struct StreamSink {
    sink: Box<dyn Write + Send>,
    /// First write error, reported back at [`Registry::finish_stream`];
    /// once set, further event writes are skipped.
    error: Option<io::Error>,
}

impl StreamSink {
    fn write(&mut self, keys: &KeyTable, record: Record) {
        if self.error.is_none() {
            if let Err(e) = write_event_line(&mut self.sink, keys, record) {
                self.error = Some(e);
            }
        }
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// The event stream: buffered records, or the sink they stream to.
#[derive(Debug, Default)]
struct EventLog {
    records: Vec<Record>,
    /// Events discarded after [`MAX_EVENTS`] was reached.
    dropped: u64,
    stream: Option<StreamSink>,
}

impl EventLog {
    fn push(&mut self, keys: &KeyTable, record: Record) {
        if let Some(stream) = &mut self.stream {
            stream.write(keys, record);
        } else if self.records.len() < MAX_EVENTS {
            self.records.push(record);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }
}

/// The mutable store behind every [`Handle`](crate::Handle). It is a
/// plain struct so unit tests (and alternative embeddings) can drive one
/// directly without touching process-global state.
#[derive(Debug, Default)]
pub struct Registry {
    keys: KeyTable,
    log: EventLog,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the registry to streaming export: every event recorded
    /// from now on is written to `sink` as a JSONL line immediately
    /// instead of being buffered (so long endurance runs are not bounded
    /// by [`MAX_EVENTS`]). Any events already buffered are flushed to the
    /// sink first, in record order. Close with
    /// [`Registry::finish_stream`], which appends the same totals tail
    /// [`Registry::write_jsonl`] produces — a streamed export of a
    /// deterministic run is byte-identical to the buffered one.
    pub fn stream_to(&mut self, sink: Box<dyn Write + Send>) {
        let mut stream = StreamSink { sink, error: None };
        for record in std::mem::take(&mut self.log.records) {
            stream.write(&self.keys, record);
        }
        self.log.stream = Some(stream);
    }

    /// Whether the registry is currently streaming events to a sink.
    #[must_use]
    pub fn is_streaming(&self) -> bool {
        self.log.stream.is_some()
    }

    /// Ends streaming: writes the totals tail (counter/gauge/histogram/
    /// span totals and the meta line), flushes, and drops the sink. The
    /// registry reverts to buffered recording.
    ///
    /// # Errors
    ///
    /// Returns the first error hit while streaming events, or any error
    /// from writing the tail. A no-op `Ok(())` if no stream was open.
    pub fn finish_stream(&mut self) -> io::Result<()> {
        let Some(mut stream) = self.log.stream.take() else {
            return Ok(());
        };
        if let Some(error) = stream.error.take() {
            return Err(error);
        }
        self.write_totals(&mut stream.sink)?;
        stream.sink.flush()
    }

    /// Adds `delta` to the counter `name`, saturating at `u64::MAX`.
    pub fn counter_add(&mut self, name: impl Into<MetricKey>, delta: u64) {
        self.counter_add_ref(&name.into(), delta);
    }

    /// [`counter_add`](Self::counter_add) by reference: the key is cloned
    /// only if the registry has never seen it, so repeated updates against
    /// a caller-held per-entity key never allocate.
    pub fn counter_add_ref(&mut self, name: &MetricKey, delta: u64) {
        let id = self.keys.id(name);
        let slot = self.keys.slots[id].counter.get_or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets gauge `name` to `value` and records a timestamped event.
    pub fn gauge_set(&mut self, name: impl Into<MetricKey>, t_ms: u64, value: f64) {
        let id = self.keys.id(&name.into());
        self.keys.slots[id].gauge = Some(value);
        let record = Record::new(Kind::Gauge, id, t_ms, value.to_bits(), 0);
        self.log.push(&self.keys, record);
    }

    /// Observes `value` into histogram `name`, creating it over `buckets`
    /// on first use. Later calls keep the original buckets.
    pub fn observe(&mut self, name: impl Into<MetricKey>, buckets: &'static [f64], value: f64) {
        let id = self.keys.id(&name.into());
        self.keys.slots[id]
            .histogram
            .get_or_insert_with(|| Box::new(FixedHistogram::new(buckets)))
            .observe(value);
    }

    /// Records a completed span occurrence.
    pub fn span_complete(
        &mut self,
        name: impl Into<MetricKey>,
        t_ms: u64,
        sim_ms: u64,
        depth: u32,
        wall_ns: u128,
    ) {
        let id = self.keys.id(&name.into());
        let stats = self.keys.slots[id].span.get_or_insert_with(Box::default);
        stats.count = stats.count.saturating_add(1);
        stats.sim_ms_total = stats.sim_ms_total.saturating_add(sim_ms);
        stats.wall_ns_total = stats.wall_ns_total.saturating_add(wall_ns);
        stats.wall_ns_max = stats.wall_ns_max.max(wall_ns);
        let record = Record::new(Kind::Span, id, t_ms, sim_ms, depth);
        self.log.push(&self.keys, record);
    }

    /// Samples every counter as a timestamped event (call this at a fixed
    /// simulated cadence to put counter trajectories in the export).
    pub fn record_counters(&mut self, t_ms: u64) {
        for &id in self.keys.index.values() {
            let id = id as usize;
            if let Some(value) = self.keys.slots[id].counter {
                let record = Record::new(Kind::Counter, id, t_ms, value, 0);
                self.log.push(&self.keys, record);
            }
        }
    }

    /// Number of events currently buffered. Together with
    /// [`Registry::write_events_from`] this is the cursor space of the
    /// incremental tap: a reader that saw `events_len()` events is fully
    /// caught up.
    #[must_use]
    pub fn events_len(&self) -> usize {
        self.log.records.len()
    }

    /// Writes the buffered events starting at index `from` as JSONL lines
    /// (the same bytes [`Registry::write_jsonl`] would emit for them) and
    /// returns the new cursor — the index just past the last event
    /// written. A `from` beyond the buffer writes nothing and returns the
    /// current length, so a reader can poll with its last cursor
    /// unconditionally. This is the incremental per-tenant telemetry tap
    /// behind `bzctl serve`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_events_from<W: Write>(&self, from: usize, mut out: W) -> io::Result<usize> {
        let records = &self.log.records;
        for &record in records.get(from..).unwrap_or_default() {
            write_event_line(&mut out, &self.keys, record)?;
        }
        Ok(records.len())
    }

    /// An owned copy of everything the registry holds.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            events: self
                .log
                .records
                .iter()
                .map(|&r| self.keys.event(r))
                .collect(),
            ..self.totals()
        }
    }

    /// The aggregates as key-sorted maps: a [`Snapshot`] without events.
    fn totals(&self) -> Snapshot {
        let mut totals = Snapshot {
            dropped_events: self.log.dropped,
            ..Snapshot::default()
        };
        for slot in self.keys.sorted() {
            let key = || slot.key.clone();
            if let Some(value) = slot.counter {
                totals.counters.insert(key(), value);
            }
            if let Some(value) = slot.gauge {
                totals.gauges.insert(key(), value);
            }
            if let Some(hist) = &slot.histogram {
                totals.histograms.insert(key(), (**hist).clone());
            }
            if let Some(stats) = slot.span.as_deref() {
                totals.spans.insert(key(), *stats);
            }
        }
        totals
    }

    /// Clears all metrics, events, and drop counts.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Writes the JSONL export: one JSON object per line — the event
    /// stream in record order, then per-key totals in sorted key order.
    ///
    /// Everything written is deterministic for a seeded run; wall-clock
    /// span timings are deliberately excluded (see
    /// `docs/OBSERVABILITY.md`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        self.write_events_from(0, &mut out)?;
        self.write_totals(&mut out)
    }

    /// The per-key totals tail shared by [`Registry::write_jsonl`] and
    /// [`Registry::finish_stream`], in sorted key order.
    fn write_totals<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for slot in self.keys.sorted() {
            if let Some(value) = slot.counter {
                writeln!(
                    out,
                    "{{\"kind\":\"counter_total\",\"name\":\"{}\",\"value\":{value}}}",
                    slot.json()
                )?;
            }
        }
        for slot in self.keys.sorted() {
            if let Some(value) = slot.gauge {
                writeln!(
                    out,
                    "{{\"kind\":\"gauge_last\",\"name\":\"{}\",\"value\":{}}}",
                    slot.json(),
                    JsonF64(value)
                )?;
            }
        }
        for slot in self.keys.sorted() {
            if let Some(hist) = &slot.histogram {
                write!(
                    out,
                    "{{\"kind\":\"histogram\",\"name\":\"{}\",\"edges\":[",
                    slot.json()
                )?;
                write_joined(out, hist.edges().iter().map(|&edge| JsonF64(edge)))?;
                out.write_all(b"],\"counts\":[")?;
                write_joined(out, hist.counts())?;
                writeln!(
                    out,
                    "],\"count\":{},\"sum\":{}}}",
                    hist.count(),
                    JsonF64(hist.sum())
                )?;
            }
        }
        for slot in self.keys.sorted() {
            if let Some(stats) = &slot.span {
                writeln!(
                    out,
                    "{{\"kind\":\"span_total\",\"name\":\"{}\",\"count\":{},\"sim_ms_total\":{}}}",
                    slot.json(),
                    stats.count,
                    stats.sim_ms_total
                )?;
            }
        }
        writeln!(
            out,
            "{{\"kind\":\"meta\",\"dropped_events\":{}}}",
            self.log.dropped
        )
    }

    /// Writes the event stream as CSV with the columns
    /// `t_ms,kind,name,value,sim_ms,depth` (blank where not applicable).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "t_ms,kind,name,value,sim_ms,depth")?;
        for &record in &self.log.records {
            let name = self.keys.slots[record.id()].key.as_str();
            let (t_ms, value) = (record.t_ms, record.value);
            match record.kind() {
                Kind::Counter => writeln!(out, "{t_ms},counter,{name},{value},,")?,
                Kind::Gauge => writeln!(
                    out,
                    "{t_ms},gauge,{name},{},,",
                    JsonF64(f64::from_bits(value))
                )?,
                Kind::Span => writeln!(out, "{t_ms},span,{name},,{value},{}", record.depth)?,
            }
        }
        Ok(())
    }

    /// Renders the human-readable end-of-run summary. This is the one
    /// place wall-clock span timings appear; it is intended for stderr /
    /// stdout, not for files that get diffed across runs.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let totals = self.totals();
        let mut out = String::new();
        if !totals.spans.is_empty() {
            out += "spans (per-stage timing):\n";
            out += &format!(
                "  {:<34} {:>9} {:>12} {:>12} {:>12}\n",
                "name", "count", "sim total s", "wall mean µs", "wall max µs"
            );
            for (name, s) in &totals.spans {
                let mean_us = if s.count == 0 {
                    0.0
                } else {
                    s.wall_ns_total as f64 / s.count as f64 / 1_000.0
                };
                out += &format!(
                    "  {:<34} {:>9} {:>12.1} {:>12.2} {:>12.2}\n",
                    name,
                    s.count,
                    s.sim_ms_total as f64 / 1_000.0,
                    mean_us,
                    s.wall_ns_max as f64 / 1_000.0,
                );
            }
        }
        if !totals.counters.is_empty() {
            out += "counters:\n";
            for (name, value) in &totals.counters {
                out += &format!("  {name:<34} {value:>12}\n");
            }
        }
        if !totals.gauges.is_empty() {
            out += "gauges (last value):\n";
            for (name, value) in &totals.gauges {
                out += &format!("  {name:<34} {value:>12.3}\n");
            }
        }
        if !totals.histograms.is_empty() {
            out += "histograms:\n";
            for (name, hist) in &totals.histograms {
                out += &format!(
                    "  {:<34} count {} mean {:.3} min {:.3} max {:.3}\n",
                    name,
                    hist.count(),
                    hist.mean().unwrap_or(0.0),
                    hist.min(),
                    hist.max()
                );
            }
        }
        if totals.dropped_events > 0 {
            out += &format!("dropped events: {}\n", totals.dropped_events);
        }
        out
    }
}

/// Only the deterministic aggregates are checkpointed. Wall-clock
/// timing is process-local diagnostics (it never reaches JSONL/CSV
/// exports) and including it would make same-seed checkpoints
/// byte-unequal; a restored process starts its wall totals at zero.
impl Persist for SpanStats {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.count);
        w.put_u64(self.sim_ms_total);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            count: r.take_u64()?,
            sim_ms_total: r.take_u64()?,
            wall_ns_total: 0,
            wall_ns_max: 0,
        })
    }
}

impl Registry {
    /// Serializes every metric, buffered event, and drop count. The open
    /// stream (if any) is *not* part of the state — checkpointing a
    /// streaming registry is rejected because the streamed bytes are
    /// already on disk and replaying them after a resume would duplicate
    /// lines.
    ///
    /// The encoding is that of four key-sorted maps (counters, gauges,
    /// histograms, spans), the event list with each event's key spelled
    /// out, and the drop count.
    ///
    /// # Panics
    ///
    /// Panics if the registry is currently streaming (see
    /// [`Registry::is_streaming`]); callers gate that combination up
    /// front.
    pub fn save_state(&self, w: &mut Writer) {
        assert!(
            self.log.stream.is_none(),
            "cannot checkpoint a streaming registry"
        );
        self.keys.save_section(w, |slot| slot.counter.as_ref());
        self.keys.save_section(w, |slot| slot.gauge.as_ref());
        self.keys.save_section(w, |slot| slot.histogram.as_deref());
        self.keys.save_section(w, |slot| slot.span.as_deref());
        w.put_len(self.log.records.len());
        for &record in &self.log.records {
            let kind = record.kind();
            w.put_u8(kind as u8);
            w.put_str(self.keys.slots[record.id()].key.as_str());
            w.put_u64(record.t_ms);
            w.put_u64(record.value);
            if kind == Kind::Span {
                w.put_u32(record.depth);
            }
        }
        w.put_u64(self.log.dropped);
    }

    /// Replaces this registry's contents with previously saved state. Any
    /// open stream is dropped unfinished. Each distinct key is interned
    /// once, however many events name it.
    ///
    /// # Errors
    ///
    /// Returns a decode error (and leaves the registry unchanged) if the
    /// bytes do not parse.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), StateError> {
        let mut keys = KeyTable::default();
        keys.load_section(r, |slot, value| slot.counter = Some(value))?;
        keys.load_section(r, |slot, value| slot.gauge = Some(value))?;
        keys.load_section(r, |slot, value| slot.histogram = Some(Box::new(value)))?;
        keys.load_section(r, |slot, value| slot.span = Some(Box::new(value)))?;
        let len = r.take_len()?;
        let mut records = Vec::with_capacity(len.min(r.remaining() / MIN_EVENT_BYTES));
        for _ in 0..len {
            let kind = match r.take_u8()? {
                0 => Kind::Counter,
                1 => Kind::Gauge,
                2 => Kind::Span,
                tag => {
                    return Err(StateError::BadTag {
                        what: "obs::Event",
                        tag: u64::from(tag),
                    })
                }
            };
            let id = keys.id_of_text(r.take_str()?);
            let t_ms = r.take_u64()?;
            let value = r.take_u64()?;
            let depth = if kind == Kind::Span { r.take_u32()? } else { 0 };
            records.push(Record::new(kind, id, t_ms, value, depth));
        }
        let dropped = r.take_u64()?;
        *self = Self {
            keys,
            log: EventLog {
                records,
                dropped,
                stream: None,
            },
        };
        Ok(())
    }
}

/// Serializes one record as its JSONL line (shared by the buffered
/// exporter, the tap and the streaming path, so all emit identical
/// bytes).
fn write_event_line<W: Write>(out: &mut W, keys: &KeyTable, record: Record) -> io::Result<()> {
    let name = keys.slots[record.id()].json();
    let (t_ms, value) = (record.t_ms, record.value);
    match record.kind() {
        Kind::Counter => writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{name}\",\"t_ms\":{t_ms},\"value\":{value}}}"
        ),
        Kind::Gauge => writeln!(
            out,
            "{{\"kind\":\"gauge\",\"name\":\"{name}\",\"t_ms\":{t_ms},\"value\":{}}}",
            JsonF64(f64::from_bits(value))
        ),
        Kind::Span => writeln!(
            out,
            "{{\"kind\":\"span\",\"name\":\"{name}\",\"t_ms\":{t_ms},\"sim_ms\":{value},\"depth\":{}}}",
            record.depth
        ),
    }
}

/// Writes `items` separated by commas.
fn write_joined<W: Write, T: fmt::Display>(
    out: &mut W,
    items: impl IntoIterator<Item = T>,
) -> io::Result<()> {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{item}")?;
    }
    Ok(())
}

/// Escapes `text` for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
/// `{}` on f64 never emits exponents, so a finite value is always a
/// valid JSON number.
pub struct JsonF64(pub f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::DEFAULT_BUCKETS;

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut registry = Registry::new();
        registry.counter_add("c", u64::MAX - 1);
        registry.counter_add("c", 5);
        assert_eq!(registry.snapshot().counters["c"], u64::MAX);
    }

    #[test]
    fn record_counters_snapshots_all_keys_in_order() {
        let mut registry = Registry::new();
        registry.counter_add("b", 2);
        registry.counter_add("a", 1);
        registry.record_counters(1_000);
        let events = registry.snapshot().events;
        assert_eq!(
            events,
            vec![
                Event::Counter {
                    name: "a".into(),
                    t_ms: 1_000,
                    value: 1
                },
                Event::Counter {
                    name: "b".into(),
                    t_ms: 1_000,
                    value: 2
                },
            ]
        );
    }

    #[test]
    fn jsonl_round_trips_through_a_parser() {
        let mut registry = Registry::new();
        registry.counter_add("wsn.packets.sent", 3);
        registry.gauge_set("thermal.chiller.radiant_w", 2_000, 145.25);
        registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
        registry.span_complete("core.control_tick", 5_000, 0, 1, 12_345);
        registry.record_counters(60_000);

        let mut bytes = Vec::new();
        registry.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();

        let mut kinds = std::collections::BTreeMap::new();
        for line in text.lines() {
            let object = parse_json_object(line)
                .unwrap_or_else(|| panic!("line is not a flat JSON object: {line}"));
            *kinds.entry(object["kind"].clone()).or_insert(0u32) += 1;
            if object["kind"] == "counter_total" && object["name"] == "wsn.packets.sent" {
                assert_eq!(object["value"], "3");
            }
            if object["kind"] == "gauge" {
                assert_eq!(object["t_ms"], "2000");
                assert_eq!(object["value"], "145.25");
            }
        }
        for expected in [
            "counter",
            "gauge",
            "span",
            "counter_total",
            "gauge_last",
            "histogram",
            "span_total",
            "meta",
        ] {
            assert!(kinds.contains_key(expected), "missing kind {expected}");
        }
    }

    #[test]
    fn csv_has_one_row_per_event_plus_header() {
        let mut registry = Registry::new();
        registry.gauge_set("g", 1, 0.5);
        registry.span_complete("s", 2, 1_000, 0, 1);
        let mut bytes = Vec::new();
        registry.write_csv(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t_ms,kind,name,value,sim_ms,depth");
        assert_eq!(lines[2], "2,span,s,,1000,0");
    }

    /// A cloneable byte sink for inspecting what a stream wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record_sample(registry: &mut Registry) {
        registry.counter_add("wsn.packets.sent", 3);
        registry.gauge_set("thermal.chiller.radiant_w", 2_000, 145.25);
        registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
        registry.span_complete("core.control_tick", 5_000, 10, 1, 12_345);
        registry.record_counters(60_000);
    }

    #[test]
    fn streamed_export_matches_the_buffered_bytes() {
        let mut buffered = Registry::new();
        record_sample(&mut buffered);
        let mut expected = Vec::new();
        buffered.write_jsonl(&mut expected).unwrap();

        let sink = SharedBuf::default();
        let mut streaming = Registry::new();
        streaming.stream_to(Box::new(sink.clone()));
        assert!(streaming.is_streaming());
        record_sample(&mut streaming);
        // Streamed events are written through, not buffered.
        assert!(streaming.snapshot().events.is_empty());
        streaming.finish_stream().unwrap();
        assert!(!streaming.is_streaming());
        assert_eq!(sink.bytes(), expected);
    }

    #[test]
    fn stream_to_flushes_already_buffered_events_first() {
        let mut buffered = Registry::new();
        record_sample(&mut buffered);
        buffered.gauge_set("late", 70_000, 1.0);
        let mut expected = Vec::new();
        buffered.write_jsonl(&mut expected).unwrap();

        let sink = SharedBuf::default();
        let mut registry = Registry::new();
        record_sample(&mut registry);
        registry.stream_to(Box::new(sink.clone()));
        registry.gauge_set("late", 70_000, 1.0);
        registry.finish_stream().unwrap();
        assert_eq!(sink.bytes(), expected);
    }

    #[test]
    fn finish_stream_reports_the_first_write_error() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut registry = Registry::new();
        registry.stream_to(Box::new(Failing));
        registry.gauge_set("g", 0, 1.0);
        registry.gauge_set("g", 1, 2.0);
        let err = registry.finish_stream().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        // And the registry is usable (buffered) again afterwards.
        registry.gauge_set("g", 2, 3.0);
        assert_eq!(registry.snapshot().events.len(), 1);
    }

    #[test]
    fn saved_state_restores_to_byte_identical_exports() {
        let mut original = Registry::new();
        record_sample(&mut original);
        original.observe("custom.buckets", &[1.0, 2.0], 1.5);
        original.log.dropped = 3;

        let mut w = bz_state::Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Registry::new();
        restored.gauge_set("stale", 1, 9.9); // must be wiped by the load
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();

        let export = |registry: &Registry| {
            let mut out = Vec::new();
            registry.write_jsonl(&mut out).unwrap();
            out
        };
        assert_eq!(export(&restored), export(&original));
        let mut csv_original = Vec::new();
        original.write_csv(&mut csv_original).unwrap();
        let mut csv_restored = Vec::new();
        restored.write_csv(&mut csv_restored).unwrap();
        assert_eq!(csv_restored, csv_original);
        let histograms = restored.snapshot().histograms;
        assert_eq!(
            histograms["wsn.btadpt.send_period_s"].edges(),
            DEFAULT_BUCKETS
        );
        assert_eq!(histograms["custom.buckets"].edges(), &[1.0, 2.0]);
    }

    #[test]
    fn events_share_one_interned_key_per_name() {
        let mut original = Registry::new();
        for minute in 0..50u64 {
            original.gauge_set(format!("ingest.{}", "room"), minute, 1.0);
            original.span_complete("core.step_second", minute, 1, 0, 0);
            original.counter_add(format!("wsn.node.{}.sent", minute % 3), 1);
            original.record_counters(minute);
        }
        assert_eq!(original.keys.slots.len(), 5);
        let mut w = bz_state::Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Registry::new();
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();
        assert_eq!(restored.events_len(), original.events_len());
        assert_eq!(restored.keys.slots.len(), 5);
    }

    #[test]
    fn load_rejects_an_unknown_event_tag() {
        let mut registry = Registry::new();
        registry.gauge_set("g", 1, 2.0);
        let mut w = bz_state::Writer::new();
        registry.save_state(&mut w);
        let mut bytes = w.into_bytes();
        // The one event ends just before the 8-byte drop count: its tag,
        // the key "g" (8-byte length, 1 byte), t_ms and the value.
        let tag_at = bytes.len() - 8 - (1 + 8 + 1 + 8 + 8);
        assert_eq!(bytes[tag_at], 1);
        bytes[tag_at] = 9;
        let err = registry
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, bz_state::StateError::BadTag { tag: 9, .. }));
        assert_eq!(registry.events_len(), 1, "a failed load changes nothing");
    }

    #[test]
    #[should_panic(expected = "streaming")]
    fn checkpointing_a_streaming_registry_is_rejected() {
        let mut registry = Registry::new();
        registry.stream_to(Box::new(Vec::new()));
        registry.save_state(&mut bz_state::Writer::new());
    }

    #[test]
    fn incremental_tap_reassembles_the_event_stream() {
        let mut registry = Registry::new();
        record_sample(&mut registry);
        let cursor = registry.events_len();
        let mut first = Vec::new();
        assert_eq!(registry.write_events_from(0, &mut first).unwrap(), cursor);
        registry.gauge_set("late", 70_000, 1.0);
        let mut second = Vec::new();
        let next = registry.write_events_from(cursor, &mut second).unwrap();
        assert_eq!(next, cursor + 1);
        // Catching up past the end is a clean no-op.
        let mut empty = Vec::new();
        assert_eq!(registry.write_events_from(next, &mut empty).unwrap(), next);
        assert!(empty.is_empty());
        // The tapped chunks concatenate to exactly the buffered event
        // lines of the full export.
        let mut full = Vec::new();
        registry.write_jsonl(&mut full).unwrap();
        let tapped = [first, second].concat();
        assert!(full.starts_with(&tapped));
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut registry = Registry::new();
        for _ in 0..MAX_EVENTS + 10 {
            registry.gauge_set("g", 0, 0.0);
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.events.len(), MAX_EVENTS);
        assert_eq!(snapshot.dropped_events, 10);
    }

    #[test]
    fn summary_mentions_every_section() {
        let mut registry = Registry::new();
        registry.counter_add("c", 1);
        registry.gauge_set("g", 0, 1.0);
        registry.observe("h", DEFAULT_BUCKETS, 1.0);
        registry.span_complete("s", 0, 1_000, 0, 500);
        let summary = registry.summary_table();
        for section in ["spans", "counters", "gauges", "histograms"] {
            assert!(summary.contains(section), "missing {section}:\n{summary}");
        }
    }

    /// Minimal flat-object JSON parser for round-trip checking: returns
    /// key → raw value text. Good enough for the exporter's own output.
    fn parse_json_object(line: &str) -> Option<std::collections::BTreeMap<String, String>> {
        let inner = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut map = std::collections::BTreeMap::new();
        let mut rest = inner;
        while !rest.is_empty() {
            rest = rest.strip_prefix('"')?;
            let key_end = rest.find('"')?;
            let key = rest[..key_end].to_owned();
            rest = rest[key_end + 1..].strip_prefix(':')?;
            let value_end = if let Some(quoted) = rest.strip_prefix('"') {
                quoted.find('"').map(|i| i + 2)?
            } else if rest.starts_with('[') {
                rest.find(']').map(|i| i + 1)?
            } else {
                rest.find(',').unwrap_or(rest.len())
            };
            let value = rest[..value_end].trim_matches('"').to_owned();
            map.insert(key, value);
            rest = rest[value_end..]
                .strip_prefix(',')
                .unwrap_or(&rest[value_end..]);
        }
        Some(map)
    }
}
