//! The metrics registry: named counters, gauges, histograms, span
//! aggregates, and the timestamped event stream behind the exporters.
//!
//! Storage is interned. A registry keeps one [`KeyTable`] entry per
//! distinct key: the key text, its JSON-escaped form, and every aggregate
//! recorded under it. The buffered event stream is one byte vector in the
//! coding of the keyed checkpoint layout: each event names its key by
//! table id, its time as a delta from the event before, and its value as a
//! varint, about 6.7 bytes for a trial tenant's mix. A checkpoint copies
//! those bytes and a restore keeps the bytes it validated. Beside them an
//! index holds one entry per [`BLOCK`] events, so the tap seeks to a cursor
//! and decodes forward; every exporter formats transient decoded events.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use bz_state::{Persist, Reader, StateError, Writer};

use crate::hist::FixedHistogram;
use crate::key::MetricKey;

/// Hard cap on buffered events; beyond it events are counted but dropped,
/// so a runaway run degrades to totals-only instead of exhausting memory.
pub const MAX_EVENTS: usize = 2_000_000;

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

/// An owned, inspectable copy of the registry's aggregates (see
/// [`Handle::snapshot`](crate::Handle::snapshot)); the events themselves
/// are read through the exporters.
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
    /// Events discarded after [`MAX_EVENTS`] was reached.
    pub dropped_events: u64,
}

/// What an event is. The discriminants are the checkpoint tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter = 0,
    Gauge = 1,
    Span = 2,
}

impl Kind {
    fn from_tag(tag: u64) -> Result<Self, StateError> {
        match tag {
            0 => Ok(Self::Counter),
            1 => Ok(Self::Gauge),
            2 => Ok(Self::Span),
            tag => Err(StateError::BadTag {
                what: "obs event kind",
                tag,
            }),
        }
    }
}

/// Most distinct keys one registry can intern, so an event's key id and
/// kind fit one 5-byte varint. An interned key costs more than 64 bytes,
/// so a registry would hold over 64 GiB of keys before reaching the limit.
const MAX_KEYS: usize = 1 << 30;

/// One event, decoded from the log for formatting. The log stores events
/// only as bytes; nothing keeps an `Event`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    kind: Kind,
    /// Key id in the [`KeyTable`].
    id: usize,
    /// Simulation time of the event, ms.
    t_ms: u64,
    /// Counter value, gauge bit pattern, or span `sim_ms`.
    value: u64,
    /// Span nesting depth at entry; 0 for counters and gauges.
    depth: u32,
}

/// The longest encoded event: a 5-byte key id and kind, a 10-byte time
/// delta, then a span's 10-byte `sim_ms` and 5-byte depth.
const MAX_EVENT_BYTES: usize = 30;

/// Events per entry of the log's block index. Each entry costs 16 bytes,
/// so the index adds under a tenth of a byte per event, and a tap skips
/// at most `BLOCK - 1` events to reach its cursor.
const BLOCK: usize = 256;

/// Appends `event` to `out` in the keyed layout, its time a delta from
/// `base_t_ms`: the one encoder of the event coding.
fn encode_event(out: &mut Vec<u8>, event: Event, base_t_ms: u64) {
    let delta = event.t_ms.wrapping_sub(base_t_ms) as i64;
    encode_varint((event.id as u64) << 2 | event.kind as u64, |b| out.push(b));
    encode_varint(zigzag(delta), |b| out.push(b));
    match event.kind {
        Kind::Counter => encode_varint(event.value, |b| out.push(b)),
        Kind::Gauge => out.extend_from_slice(&event.value.to_le_bytes()),
        Kind::Span => {
            encode_varint(event.value, |b| out.push(b));
            encode_varint(u64::from(event.depth), |b| out.push(b));
        }
    }
}

/// Emits `value` as a LEB128 varint: seven bits a byte, low bits first,
/// and never a final zero byte after the first.
fn encode_varint(mut value: u64, mut emit: impl FnMut(u8)) {
    while value >= 0x80 {
        emit(value as u8 | 0x80);
        value >>= 7;
    }
    emit(value as u8);
}

/// The first word of a registry checkpoint in the keyed layout. A legacy
/// section starts with its counter-map length instead, which can never be
/// `u64::MAX`.
const KEYED_LAYOUT: u64 = u64::MAX;

/// The two checkpoint layouts of the registry section this build reads.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Envelope format 2: every event spells out its key, and integers
    /// are fixed-width. Decode only.
    Legacy,
    /// Envelope format 3: events name keys by id in the saved key table,
    /// with zigzag-delta `t_ms` and varint values.
    Keyed,
}

impl Layout {
    /// Reads a map or list length.
    fn take_len(self, r: &mut Reader<'_>) -> Result<u64, StateError> {
        match self {
            Self::Legacy => r.take_len().map(|len| len as u64),
            Self::Keyed => take_varint(r),
        }
    }
}

/// Writes `value` as a LEB128 varint (see [`encode_varint`]).
fn put_varint(w: &mut Writer, value: u64) {
    encode_varint(value, |b| w.put_u8(b));
}

/// Reads a varint written by [`put_varint`].
fn take_varint(r: &mut Reader<'_>) -> Result<u64, StateError> {
    take_decoded(r, Decoder::varint)
}

/// Runs `decode` over the reader's unread bytes and consumes the bytes it
/// read. A decode cut short fails as the reader's own reads do, with the
/// reader's offsets.
fn take_decoded<'a, T>(
    r: &mut Reader<'a>,
    decode: impl FnOnce(&mut Decoder<'a>) -> Result<T, StateError>,
) -> Result<T, StateError> {
    let mut decoder = Decoder::new(r.unread());
    match decode(&mut decoder) {
        Err(StateError::UnexpectedEof {
            what, at, wanted, ..
        }) => Err(r
            .take_raw(what, at + wanted)
            .expect_err("a read past the unread bytes")),
        decoded => {
            r.take_raw("obs", decoder.pos)
                .expect("the decoder reads only unread bytes");
            decoded
        }
    }
}

/// Reads the event coding from a byte slice: the one decoder behind load
/// validation, the tap and every export.
struct Decoder<'a> {
    bytes: &'a [u8],
    /// Offset of the next byte to read.
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    #[cold]
    fn cut_short(&self, what: &'static str, wanted: usize) -> StateError {
        StateError::UnexpectedEof {
            what,
            at: self.pos,
            wanted,
            remaining: self.bytes.len() - self.pos,
        }
    }

    /// Reads a varint: at most 10 bytes, the tenth holding only the top
    /// bit of a `u64`, and no final zero byte after the first. So each
    /// value has one encoding, and event bytes kept as they were read
    /// re-save to the same bytes.
    /// Inlined into each caller, it keeps the decoded value in registers.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, StateError> {
        let mut value = 0;
        let mut at = self.pos;
        let mut shift = 0;
        while let Some(&byte) = self.bytes.get(at) {
            at += 1;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                if shift > 0 && byte == 0 {
                    return Err(bad_varint("overlong: ends in a zero byte"));
                }
                if shift == 63 && byte > 1 {
                    return Err(bad_varint("past u64::MAX"));
                }
                self.pos = at;
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(bad_varint("longer than 10 bytes"));
            }
        }
        Err(self.cut_short("obs varint", at - self.pos + 1))
    }

    /// Reads a gauge's 8-byte bit pattern.
    fn bits(&mut self) -> Result<u64, StateError> {
        let Some(raw) = self.bytes.get(self.pos..self.pos + 8) else {
            return Err(self.cut_short("obs gauge bits", 8));
        };
        self.pos += 8;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads one event, its time a delta from `base_t_ms`. Refuses a kind
    /// tag past [`Kind::Span`], a key id past the table, and a span depth
    /// past `u32`. Inlined into each caller for the same reason as
    /// [`Decoder::varint`].
    #[inline(always)]
    fn event(&mut self, keys: &KeyTable, base_t_ms: u64) -> Result<Event, StateError> {
        let key_kind = self.varint()?;
        let kind = Kind::from_tag(key_kind & 3)?;
        let id = keys.checked_id(key_kind >> 2)?;
        let t_ms = base_t_ms.wrapping_add(unzigzag(self.varint()?) as u64);
        let (value, depth) = match kind {
            Kind::Counter => (self.varint()?, 0),
            Kind::Gauge => (self.bits()?, 0),
            Kind::Span => (self.varint()?, span_depth(self.varint()?)?),
        };
        Ok(Event {
            kind,
            id,
            t_ms,
            value,
            depth,
        })
    }
}

/// A span depth, which must fit a `u32`.
fn span_depth(depth: u64) -> Result<u32, StateError> {
    u32::try_from(depth).map_err(|_| StateError::Invalid {
        what: "obs span depth",
        reason: format!("{depth} does not fit a u32"),
    })
}

#[cold]
fn bad_varint(reason: &str) -> StateError {
    StateError::Invalid {
        what: "obs varint",
        reason: reason.to_owned(),
    }
}

/// Maps a signed delta onto the unsigned varints, small magnitudes first.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(coded: u64) -> i64 {
    (coded >> 1) as i64 ^ -((coded & 1) as i64)
}

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

    /// Writes every key in id order, so a restored table hands out the
    /// same ids.
    fn save_keys(&self, w: &mut Writer) {
        put_varint(w, self.slots.len() as u64);
        for slot in &self.slots {
            w.put_str(slot.key.as_str());
        }
    }

    /// Reads a table written by [`KeyTable::save_keys`].
    fn load_keys(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let count = take_varint(r)?;
        if count > MAX_KEYS as u64 {
            return Err(StateError::Invalid {
                what: "obs key table",
                reason: format!("{count} keys, over the {MAX_KEYS} a registry holds"),
            });
        }
        let mut keys = Self::default();
        // Each key takes at least its 8-byte length.
        keys.slots.reserve((count as usize).min(r.remaining() / 8));
        for _ in 0..count {
            let text = r.take_str()?;
            if keys.index.contains_key(text) {
                return Err(StateError::Invalid {
                    what: "obs key table",
                    reason: format!("key {text:?} is saved twice"),
                });
            }
            keys.insert(MetricKey::from(text.to_owned()));
        }
        Ok(keys)
    }

    /// The key a checkpointed map entry or event names: its text in the
    /// legacy layout (interned on first sight), an id into the saved table
    /// in the keyed one.
    fn take_key(&mut self, r: &mut Reader<'_>, layout: Layout) -> Result<usize, StateError> {
        match layout {
            Layout::Legacy => Ok(self.id_of_text(r.take_str()?)),
            Layout::Keyed => self.checked_id(take_varint(r)?),
        }
    }

    fn checked_id(&self, id: u64) -> Result<usize, StateError> {
        match usize::try_from(id) {
            Ok(id) if id < self.slots.len() => Ok(id),
            _ => Err(StateError::Invalid {
                what: "obs key id",
                reason: format!("{id} is past the {} saved keys", self.slots.len()),
            }),
        }
    }

    /// Writes one checkpointed totals map: the ids of the keys that hold
    /// `get`'s aggregate, in key-text order, each with its value.
    fn save_section<T: Persist>(&self, w: &mut Writer, get: impl Fn(&Slot) -> Option<&T>) {
        put_varint(
            w,
            self.slots.iter().filter(|slot| get(slot).is_some()).count() as u64,
        );
        for &id in self.index.values() {
            if let Some(value) = get(&self.slots[id as usize]) {
                put_varint(w, u64::from(id));
                value.save(w);
            }
        }
    }

    /// Reads `len` entries of one totals map; a repeated key keeps its
    /// last value, as decoding into a map would.
    fn load_section<T: Persist>(
        &mut self,
        r: &mut Reader<'_>,
        layout: Layout,
        len: u64,
        set: impl Fn(&mut Slot, T),
    ) -> Result<(), StateError> {
        for _ in 0..len {
            let id = self.take_key(r, layout)?;
            set(&mut self.slots[id], T::load(r)?);
        }
        Ok(())
    }

    /// Reads the four totals maps (counters, gauges, histograms, spans);
    /// the counter map's length is already read, as it doubles as the
    /// layout tag.
    fn load_totals(
        &mut self,
        r: &mut Reader<'_>,
        layout: Layout,
        counters: u64,
    ) -> Result<(), StateError> {
        self.load_section(r, layout, counters, |slot, value| {
            slot.counter = Some(value);
        })?;
        let len = layout.take_len(r)?;
        self.load_section(r, layout, len, |slot, value| slot.gauge = Some(value))?;
        let len = layout.take_len(r)?;
        self.load_section(r, layout, len, |slot, value| {
            slot.histogram = Some(Box::new(value));
        })?;
        let len = layout.take_len(r)?;
        self.load_section(r, layout, len, |slot, value| {
            slot.span = Some(Box::new(value));
        })
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
    fn write(&mut self, keys: &KeyTable, event: Event) {
        if self.error.is_none() {
            if let Err(e) = write_event_line(&mut self.sink, keys, event) {
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

/// Where one block of [`BLOCK`] events starts in the log.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Byte offset of the block's first event.
    offset: usize,
    /// The `t_ms` the first event's delta is relative to.
    base_t_ms: u64,
}

/// The event stream: buffered event bytes, or the sink they stream to.
#[derive(Debug, Default)]
struct EventLog {
    /// The buffered events, encoded as the keyed checkpoint layout stores
    /// them (see [`Registry::save_state`]).
    bytes: Vec<u8>,
    /// One entry for every [`BLOCK`]-th event, the first included.
    blocks: Vec<Block>,
    /// Events in `bytes`.
    len: usize,
    /// `t_ms` of the last buffered event, the base of the next one's
    /// delta: 0 while the buffer is empty.
    last_t_ms: u64,
    /// Events discarded after [`MAX_EVENTS`] was reached.
    dropped: u64,
    stream: Option<StreamSink>,
}

impl EventLog {
    fn push(&mut self, keys: &KeyTable, event: Event) {
        if let Some(stream) = &mut self.stream {
            stream.write(keys, event);
        } else {
            self.append(event);
        }
    }

    /// Buffers `event`, or counts it as dropped at [`MAX_EVENTS`].
    fn append(&mut self, event: Event) {
        if self.len == MAX_EVENTS {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        if self.len.is_multiple_of(BLOCK) {
            self.blocks.push(Block {
                offset: self.bytes.len(),
                base_t_ms: self.last_t_ms,
            });
        }
        if self.bytes.capacity() - self.bytes.len() < MAX_EVENT_BYTES {
            // Grow by a quarter, not the doubling `Vec` would pick: the
            // log is most of a stepped tenant's heap, so its slack stays
            // small. The event then fits without a second growth.
            self.bytes.reserve_exact((self.bytes.len() / 4).max(1024));
        }
        encode_event(&mut self.bytes, event, self.last_t_ms);
        self.last_t_ms = event.t_ms;
        self.len += 1;
    }

    /// The buffered events from index `from` on: the block holding `from`,
    /// decoded forward past the events before it. Empty when `from` is
    /// past the end.
    fn events_from<'a>(&'a self, keys: &'a KeyTable, from: usize) -> Events<'a> {
        let mut events = Events {
            decoder: Decoder::new(&[]),
            keys,
            t_ms: 0,
        };
        if from < self.len {
            let block = self.blocks[from / BLOCK];
            events.decoder = Decoder::new(&self.bytes[block.offset..]);
            events.t_ms = block.base_t_ms;
            for _ in 0..from % BLOCK {
                events.next();
            }
        }
        events
    }

    /// Reads `len` keyed-layout events: each is validated, and the bytes
    /// they take are kept as they were read.
    fn load_keyed(r: &mut Reader<'_>, keys: &KeyTable, len: usize) -> Result<Self, StateError> {
        take_decoded(r, |events| {
            let mut log = Self::default();
            for _ in 0..len {
                if log.len.is_multiple_of(BLOCK) {
                    log.blocks.push(Block {
                        offset: events.pos,
                        base_t_ms: log.last_t_ms,
                    });
                }
                log.last_t_ms = events.event(keys, log.last_t_ms)?.t_ms;
                log.len += 1;
            }
            log.bytes = events.bytes[..events.pos].to_vec();
            Ok(log)
        })
    }

    /// Reads `len` legacy-layout events, each spelling out its key (which
    /// is interned on first sight), and encodes them once.
    fn load_legacy(
        r: &mut Reader<'_>,
        keys: &mut KeyTable,
        len: usize,
    ) -> Result<Self, StateError> {
        let mut log = Self::default();
        for _ in 0..len {
            let kind = Kind::from_tag(u64::from(r.take_u8()?))?;
            let id = keys.take_key(r, Layout::Legacy)?;
            let t_ms = r.take_u64()?;
            let value = r.take_u64()?;
            let depth = if kind == Kind::Span { r.take_u32()? } else { 0 };
            log.append(Event {
                kind,
                id,
                t_ms,
                value,
                depth,
            });
        }
        log.bytes.shrink_to_fit();
        Ok(log)
    }
}

/// Decodes buffered events in order, to the end of the log.
struct Events<'a> {
    decoder: Decoder<'a>,
    keys: &'a KeyTable,
    /// `t_ms` of the event decoded last.
    t_ms: u64,
}

impl Iterator for Events<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.decoder.pos == self.decoder.bytes.len() {
            return None;
        }
        let event = self
            .decoder
            .event(self.keys, self.t_ms)
            .expect("the log holds only events it encoded or validated");
        self.t_ms = event.t_ms;
        Some(event)
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
    /// sink first, in recording order. Close with
    /// [`Registry::finish_stream`], which appends the same totals tail
    /// [`Registry::write_jsonl`] produces — a streamed export of a
    /// deterministic run is byte-identical to the buffered one.
    pub fn stream_to(&mut self, sink: Box<dyn Write + Send>) {
        let mut stream = StreamSink { sink, error: None };
        for event in self.log.events_from(&self.keys, 0) {
            stream.write(&self.keys, event);
        }
        self.log = EventLog {
            dropped: self.log.dropped,
            stream: Some(stream),
            ..EventLog::default()
        };
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
        let event = Event {
            kind: Kind::Gauge,
            id,
            t_ms,
            value: value.to_bits(),
            depth: 0,
        };
        self.log.push(&self.keys, event);
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
        let event = Event {
            kind: Kind::Span,
            id,
            t_ms,
            value: sim_ms,
            depth,
        };
        self.log.push(&self.keys, event);
    }

    /// Samples every counter as a timestamped event (call this at a fixed
    /// simulated cadence to put counter trajectories in the export).
    pub fn record_counters(&mut self, t_ms: u64) {
        for &id in self.keys.index.values() {
            let id = id as usize;
            if let Some(value) = self.keys.slots[id].counter {
                let event = Event {
                    kind: Kind::Counter,
                    id,
                    t_ms,
                    value,
                    depth: 0,
                };
                self.log.push(&self.keys, event);
            }
        }
    }

    /// Number of events currently buffered. Together with
    /// [`Registry::write_events_from`] this is the cursor space of the
    /// incremental tap: a reader that saw `events_len()` events is fully
    /// caught up.
    #[must_use]
    pub fn events_len(&self) -> usize {
        self.log.len
    }

    /// Writes the buffered events starting at index `from` as JSONL lines
    /// (the same bytes [`Registry::write_jsonl`] would emit for them) and
    /// returns the new cursor — the index just past the last event
    /// written. A `from` beyond the buffer writes nothing and returns the
    /// current length, so a reader can poll with its last cursor
    /// unconditionally. This is the incremental per-tenant telemetry tap
    /// behind `bzctl serve`. It seeks to the index block holding `from`
    /// and decodes forward from there.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `out`.
    pub fn write_events_from<W: Write>(&self, from: usize, mut out: W) -> io::Result<usize> {
        for event in self.log.events_from(&self.keys, from) {
            write_event_line(&mut out, &self.keys, event)?;
        }
        Ok(self.log.len)
    }

    /// An owned copy of the aggregates, as key-sorted maps.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
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
    /// stream in recording order, then per-key totals in sorted key order.
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
        for event in self.log.events_from(&self.keys, 0) {
            let name = self.keys.slots[event.id].key.as_str();
            let (t_ms, value) = (event.t_ms, event.value);
            match event.kind {
                Kind::Counter => writeln!(out, "{t_ms},counter,{name},{value},,")?,
                Kind::Gauge => writeln!(
                    out,
                    "{t_ms},gauge,{name},{},,",
                    JsonF64(f64::from_bits(value))
                )?,
                Kind::Span => writeln!(out, "{t_ms},span,{name},,{value},{}", event.depth)?,
            }
        }
        Ok(())
    }

    /// Renders the human-readable end-of-run summary. This is the one
    /// place wall-clock span timings appear; it is intended for stderr /
    /// stdout, not for files that get diffed across runs.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let totals = self.snapshot();
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
    /// The keyed layout (`docs/CHECKPOINTS.md`): a `u64::MAX` layout tag,
    /// the key table in id order, four key-sorted totals maps (counters,
    /// gauges, histograms, spans) that name keys by id, the event count,
    /// the event bytes, and the drop count. Each event is
    /// `varint(id << 2 | kind)`, the zigzag varint of its `t_ms` minus the
    /// previous event's (a parent span records after its children, with
    /// an earlier `t_ms`), then a varint counter value, the gauge's 8-byte
    /// bit pattern, or a varint span `sim_ms` and depth. That is the
    /// coding the log holds in memory, so its bytes are copied as they
    /// are.
    ///
    /// # Panics
    ///
    /// Panics if the registry is currently streaming (see
    /// [`Registry::stream_to`]); callers gate that combination up front.
    pub fn save_state(&self, w: &mut Writer) {
        assert!(
            self.log.stream.is_none(),
            "cannot checkpoint a streaming registry"
        );
        w.put_u64(KEYED_LAYOUT);
        self.keys.save_keys(w);
        self.keys.save_section(w, |slot| slot.counter.as_ref());
        self.keys.save_section(w, |slot| slot.gauge.as_ref());
        self.keys.save_section(w, |slot| slot.histogram.as_deref());
        self.keys.save_section(w, |slot| slot.span.as_deref());
        put_varint(w, self.log.len as u64);
        w.put_raw(&self.log.bytes);
        put_varint(w, self.log.dropped);
    }

    /// Replaces this registry's contents with previously saved state, in
    /// the keyed layout or the legacy one of envelope format 2. Any open
    /// stream is dropped unfinished. Each distinct key is interned once,
    /// however many events name it. Keyed events are validated and kept
    /// as the bytes they were read from; legacy ones are encoded once.
    ///
    /// # Errors
    ///
    /// Returns a decode error (and leaves the registry unchanged) if the
    /// bytes do not parse.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), StateError> {
        let (layout, mut keys, counters) = match r.take_u64()? {
            KEYED_LAYOUT => {
                let keys = KeyTable::load_keys(r)?;
                (Layout::Keyed, keys, take_varint(r)?)
            }
            counters => (Layout::Legacy, KeyTable::default(), counters),
        };
        keys.load_totals(r, layout, counters)?;
        let len = layout.take_len(r)?;
        // A registry never buffers more.
        if len > MAX_EVENTS as u64 {
            return Err(StateError::Invalid {
                what: "obs event log",
                reason: format!("{len} events, over the {MAX_EVENTS}-event cap"),
            });
        }
        let (log, dropped) = match layout {
            Layout::Legacy => (
                EventLog::load_legacy(r, &mut keys, len as usize)?,
                r.take_u64()?,
            ),
            Layout::Keyed => (
                EventLog::load_keyed(r, &keys, len as usize)?,
                take_varint(r)?,
            ),
        };
        *self = Self {
            keys,
            log: EventLog { dropped, ..log },
        };
        Ok(())
    }
}

/// Serializes one event as its JSONL line (shared by the buffered
/// exporter, the tap and the streaming path, so all emit identical
/// bytes). The fixed text and the integers are written directly, not
/// through `format_args!`: a tap or export writes one line per event.
fn write_event_line<W: Write>(out: &mut W, keys: &KeyTable, event: Event) -> io::Result<()> {
    out.write_all(match event.kind {
        Kind::Counter => b"{\"kind\":\"counter\",\"name\":\"",
        Kind::Gauge => b"{\"kind\":\"gauge\",\"name\":\"",
        Kind::Span => b"{\"kind\":\"span\",\"name\":\"",
    })?;
    out.write_all(keys.slots[event.id].json().as_bytes())?;
    out.write_all(b"\",\"t_ms\":")?;
    write_decimal(out, event.t_ms)?;
    match event.kind {
        Kind::Counter => {
            out.write_all(b",\"value\":")?;
            write_decimal(out, event.value)?;
        }
        Kind::Gauge => write!(out, ",\"value\":{}", JsonF64(f64::from_bits(event.value)))?,
        Kind::Span => {
            out.write_all(b",\"sim_ms\":")?;
            write_decimal(out, event.value)?;
            out.write_all(b",\"depth\":")?;
            write_decimal(out, u64::from(event.depth))?;
        }
    }
    out.write_all(b"}\n")
}

/// Writes `n` in decimal, as `{}` formats it.
fn write_decimal<W: Write>(out: &mut W, mut n: u64) -> io::Result<()> {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_all(&digits[start..])
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
        let mut csv = Vec::new();
        registry.write_csv(&mut csv).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "t_ms,kind,name,value,sim_ms,depth\n1000,counter,a,1,,\n1000,counter,b,2,,\n"
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
        assert!(streaming.log.stream.is_some());
        record_sample(&mut streaming);
        // Streamed events are written through, not buffered.
        assert_eq!(streaming.events_len(), 0);
        streaming.finish_stream().unwrap();
        assert!(streaming.log.stream.is_none());
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
        assert_eq!(registry.events_len(), 1);
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
        let mut keyed = saved(&registry);
        // The one event ends just before the one-byte drop count: its key
        // and kind, its time delta, and the 8-byte value.
        let tag_at = keyed.len() - 1 - (1 + 1 + 8);
        assert_eq!(keyed[tag_at], 1, "key 0, kind gauge");
        keyed[tag_at] = 3;
        // The same registry in the legacy layout: the counter map, the
        // gauge map with its one entry, the histogram and span maps, the
        // event count, then the event's tag byte.
        let mut w = Writer::new();
        w.put_len(0);
        w.put_len(1);
        w.put_str("g");
        w.put_f64(2.0);
        w.put_len(0);
        w.put_len(0);
        w.put_len(1);
        let legacy_tag_at = w.len();
        w.put_u8(Kind::Gauge as u8);
        w.put_str("g");
        w.put_u64(1);
        w.put_f64(2.0);
        w.put_u64(0);
        let mut legacy = w.into_bytes();
        let mut restored = Registry::new();
        restored.load_state(&mut Reader::new(&legacy)).unwrap();
        assert_eq!(saved(&restored), saved(&registry));
        legacy[legacy_tag_at] = 9;

        registry.gauge_set("g", 2, 3.0);
        for (bytes, tag) in [(keyed, 3), (legacy, 9)] {
            let err = registry.load_state(&mut Reader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, StateError::BadTag { tag: t, .. } if t == tag),
                "{err}"
            );
            assert_eq!(registry.events_len(), 2, "a failed load changes nothing");
        }
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
        assert_eq!(registry.events_len(), MAX_EVENTS);
        assert_eq!(registry.snapshot().dropped_events, 10);
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

    fn saved(registry: &Registry) -> Vec<u8> {
        let mut w = Writer::new();
        registry.save_state(&mut w);
        w.into_bytes()
    }

    /// Every buffered event, decoded.
    fn events(registry: &Registry) -> Vec<Event> {
        registry.log.events_from(&registry.keys, 0).collect()
    }

    fn jsonl(registry: &Registry) -> Vec<u8> {
        let mut out = Vec::new();
        registry.write_jsonl(&mut out).unwrap();
        out
    }

    fn csv(registry: &Registry) -> Vec<u8> {
        let mut out = Vec::new();
        registry.write_csv(&mut out).unwrap();
        out
    }

    /// Records `minutes` minutes of a trial tenant's kind of telemetry,
    /// from minute `from` on: per simulated second a nested span pair and
    /// a gauge, per minute a counter sample.
    fn record_minutes(registry: &mut Registry, from: u64, minutes: u64) {
        for minute in from..from + minutes {
            for second in 0..60 {
                let t_ms = (minute * 60 + second) * 1_000;
                registry.span_complete("thermal.plant.step", t_ms + 1_000, 1_000, 1, 0);
                registry.span_complete("core.step_second", t_ms, 1_000, 0, 0);
                registry.gauge_set("thermal.chiller.radiant_w", t_ms, (t_ms % 977) as f64 / 7.0);
            }
            registry.counter_add(format!("wsn.node.{}.sent", minute % 3), minute);
            registry.record_counters((minute + 1) * 60_000);
        }
    }

    /// Five minutes, 912 events: three full index blocks and a partial
    /// fourth.
    fn three_and_a_half_blocks() -> Registry {
        let mut registry = Registry::new();
        record_minutes(&mut registry, 0, 5);
        registry
    }

    /// The legacy-layout bytes `tests/pinned_encodings.rs`'s sequence
    /// saved to under envelope format 2.
    const LEGACY_STATE: &[u8] = include_bytes!("../tests/fixtures/pinned_state_v2.bin");

    /// A keyed-layout section with every event kind, a parent span
    /// recorded after its child with an earlier `t_ms`, a depth past
    /// one varint byte, and drops.
    fn keyed_sample() -> Vec<u8> {
        let mut registry = Registry::new();
        record_sample(&mut registry);
        registry.span_complete("child", 9_000, 5, u32::MAX, 0);
        registry.span_complete("parent", 8_000, 1_005, 0, 0);
        registry.gauge_set("g", u64::MAX, -0.0);
        registry.gauge_set("g", 0, f64::from_bits(0x7ff8_dead_beef_0001));
        registry.counter_add("c", u64::MAX);
        registry.record_counters(3);
        registry.log.dropped = 300;
        saved(&registry)
    }

    /// Loads `bytes` over a registry that already holds data and checks
    /// the decoder's contract: a failed load leaves the registry as it
    /// was, and a successful one keeps no more event bytes than the
    /// section holds. Returns whether the load succeeded.
    fn load_checked(bytes: &[u8]) -> Result<bool, String> {
        let mut registry = Registry::new();
        registry.gauge_set("kept", 5, 1.0);
        registry.span_complete("kept.span", 6, 1, 0, 0);
        let before = saved(&registry);
        match registry.load_state(&mut Reader::new(bytes)) {
            Ok(()) => {
                let kept = registry.log.bytes.capacity();
                if kept > bytes.len() {
                    return Err(format!(
                        "kept {kept} event bytes for a {}-byte section",
                        bytes.len()
                    ));
                }
                Ok(true)
            }
            Err(_) if saved(&registry) == before => Ok(false),
            Err(e) => Err(format!("a failed load ({e}) changed the registry")),
        }
    }

    /// A keyed section holding `keys` keys, no totals, and `events`
    /// events behind an event count of `count`.
    fn keyed_section(keys: u64, count: u64, events: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(KEYED_LAYOUT);
        put_varint(&mut w, keys);
        for key in 0..keys {
            w.put_str(&format!("k{key}"));
        }
        for _ in 0..4 {
            put_varint(&mut w, 0);
        }
        put_varint(&mut w, count);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(events);
        bytes.push(0); // drop count
        bytes
    }

    #[test]
    fn keyed_sample_round_trips_and_re_saves_to_the_same_bytes() {
        let bytes = keyed_sample();
        let mut restored = Registry::new();
        restored.load_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(saved(&restored), bytes);
        let events = events(&restored);
        let child = restored.keys.index["child"] as usize;
        assert!(events.contains(&Event {
            kind: Kind::Span,
            id: child,
            t_ms: 9_000,
            value: 5,
            depth: u32::MAX,
        }));
        let g = restored.keys.index["g"] as usize;
        let gauge_bits: Vec<u64> = events
            .iter()
            .filter(|event| event.id == g)
            .map(|event| event.value)
            .collect();
        assert_eq!(gauge_bits, [(-0.0f64).to_bits(), 0x7ff8_dead_beef_0001]);
        assert_eq!(restored.log.dropped, 300);
    }

    #[test]
    fn tapping_from_any_cursor_writes_the_tail_of_the_export() {
        let registry = three_and_a_half_blocks();
        let len = registry.events_len();
        assert_eq!((registry.log.blocks.len(), len % BLOCK), (4, 144));
        let full = jsonl(&registry);
        let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
        for from in 0..=len + 1 {
            let mut page = Vec::new();
            assert_eq!(registry.write_events_from(from, &mut page).unwrap(), len);
            let tail = lines[from.min(len)..len].concat();
            assert_eq!(page, tail, "cursor {from}");
        }
    }

    #[test]
    fn a_restored_log_records_on_like_an_uninterrupted_one() {
        let mut uninterrupted = three_and_a_half_blocks();
        let mut restored = Registry::new();
        restored
            .load_state(&mut Reader::new(&saved(&uninterrupted)))
            .unwrap();
        for registry in [&mut uninterrupted, &mut restored] {
            record_minutes(registry, 7, 3);
        }
        assert!(restored.log.blocks.len() > 4);
        assert_eq!(jsonl(&restored), jsonl(&uninterrupted));
        assert_eq!(csv(&restored), csv(&uninterrupted));
        assert_eq!(saved(&restored), saved(&uninterrupted));
        let mut tap = Vec::new();
        restored.write_events_from(5 * BLOCK + 3, &mut tap).unwrap();
        let mut expected = Vec::new();
        uninterrupted
            .write_events_from(5 * BLOCK + 3, &mut expected)
            .unwrap();
        assert_eq!(tap, expected);
    }

    #[test]
    fn an_overlong_varint_in_an_event_is_refused() {
        // A counter event of key 0 whose value 7 is padded to two bytes.
        let padded = keyed_section(1, 1, &[0, 0, 0x87, 0x00]);
        assert_eq!(load_checked(&padded), Ok(false));
        let err = Registry::new()
            .load_state(&mut Reader::new(&padded))
            .unwrap_err();
        assert!(err.to_string().contains("overlong"), "{err}");
        // The same in the time delta, and the canonical event loads.
        assert_eq!(
            load_checked(&keyed_section(1, 1, &[0, 0x80, 0, 7])),
            Ok(false)
        );
        assert_eq!(load_checked(&keyed_section(1, 1, &[0, 0, 7])), Ok(true));
    }

    #[test]
    fn every_truncation_of_either_layout_is_an_error_that_changes_nothing() {
        for bytes in [keyed_sample(), LEGACY_STATE.to_vec()] {
            assert_eq!(load_checked(&bytes), Ok(true));
            for cut in 0..bytes.len() {
                assert_eq!(load_checked(&bytes[..cut]), Ok(false), "cut at {cut}");
            }
        }
    }

    #[test]
    fn varints_stop_at_ten_bytes() {
        let take = |bytes: &[u8]| take_varint(&mut Reader::new(bytes));
        let mut w = Writer::new();
        put_varint(&mut w, u64::MAX);
        assert_eq!(
            w.as_bytes(),
            [0xff; 9].iter().chain(&[1]).copied().collect::<Vec<_>>()
        );
        assert_eq!(take(w.as_bytes()), Ok(u64::MAX));
        let eleven: Vec<u8> = [0xff; 10].iter().chain(&[1]).copied().collect();
        assert!(take(&eleven).is_err(), "an 11-byte varint");
        assert!(
            take(&[0x80; 10]).is_err(),
            "a continuation on the tenth byte"
        );
        assert!(take(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2]).is_err());
        // An 11-byte varint in place of the key count, the event count,
        // or an event's time delta.
        let mut at_keys = KEYED_LAYOUT.to_le_bytes().to_vec();
        at_keys.extend_from_slice(&eleven);
        let mut at_count = keyed_section(1, 0, &[]);
        at_count.truncate(at_count.len() - 2);
        at_count.extend_from_slice(&eleven);
        let event: Vec<u8> = [0].iter().chain(&eleven).chain(&[0]).copied().collect();
        let at_delta = keyed_section(1, 1, &event);
        for bytes in [at_keys, at_count, at_delta] {
            assert_eq!(load_checked(&bytes), Ok(false));
        }
    }

    proptest::proptest! {
        #[test]
        fn save_load_save_is_the_identity(
            steps in proptest::collection::vec((0u8..4, 0u64..6, 0u64..1 << 40, 0u64..1 << 20), 0..600),
        ) {
            let mut registry = Registry::new();
            let mut t_ms = 0u64;
            for (op, key, value, dt) in steps {
                // Time mostly moves forward, sometimes back a little.
                t_ms = t_ms.wrapping_add(dt).wrapping_sub(dt % 3 * 1_000);
                let name = format!("k{key}");
                match op {
                    0 => registry.gauge_set(name, t_ms, f64::from_bits(value.rotate_left(23))),
                    1 => registry.span_complete(name, t_ms, value, (value % 5) as u32, 0),
                    2 => registry.counter_add(name, value),
                    _ => registry.record_counters(t_ms),
                }
            }
            let bytes = saved(&registry);
            let mut restored = Registry::new();
            restored.load_state(&mut Reader::new(&bytes)).unwrap();
            proptest::prop_assert_eq!(saved(&restored), bytes);
            proptest::prop_assert_eq!(jsonl(&restored), jsonl(&registry));
        }

        #[test]
        fn varints_and_zigzag_round_trip(value in 0u64..u64::MAX, shift in 0u64..64, delta in 0u64..u64::MAX) {
            let value = value >> shift;
            let mut w = Writer::new();
            put_varint(&mut w, value);
            proptest::prop_assert!(w.len() <= 10);
            proptest::prop_assert_eq!(take_varint(&mut Reader::new(w.as_bytes())), Ok(value));
            let delta = (delta >> shift) as i64;
            for delta in [delta, delta.wrapping_neg(), i64::MIN, i64::MAX] {
                proptest::prop_assert_eq!(unzigzag(zigzag(delta)), delta);
            }
        }

        #[test]
        fn arbitrary_bytes_after_either_layout_tag_load_or_fail_cleanly(
            legacy_counters in 0u64..4,
            tail in proptest::collection::vec(0u16..256, 0..160),
        ) {
            let tag = if legacy_counters == 0 { KEYED_LAYOUT } else { legacy_counters - 1 };
            let mut bytes = tag.to_le_bytes().to_vec();
            bytes.extend(tail.iter().map(|&b| b as u8));
            load_checked(&bytes).map_err(proptest::test_runner::TestCaseError::Fail)?;
        }

        #[test]
        fn bit_flips_in_either_layout_load_or_fail_cleanly(
            legacy in 0u8..2,
            at in 0usize..1 << 16,
            bit in 0u8..8,
        ) {
            let mut bytes = if legacy == 1 { LEGACY_STATE.to_vec() } else { keyed_sample() };
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
            load_checked(&bytes).map_err(proptest::test_runner::TestCaseError::Fail)?;
        }

        #[test]
        fn key_ids_must_name_a_saved_key(keys in 0u64..5, past in 0u64..3, kind in 0u64..3) {
            // One event naming the id `past` places beyond the last saved
            // key: valid only when `past` is 0 and there is a key.
            let id = (keys + past).saturating_sub(1);
            let mut event = Writer::new();
            put_varint(&mut event, id << 2 | kind);
            put_varint(&mut event, zigzag(-7));
            if kind == Kind::Gauge as u64 {
                event.put_f64(1.5);
            } else {
                put_varint(&mut event, 60_000);
            }
            if kind == Kind::Span as u64 {
                put_varint(&mut event, 2);
            }
            let valid = keys > 0 && past == 0;
            let bytes = keyed_section(keys, 1, event.as_bytes());
            proptest::prop_assert_eq!(load_checked(&bytes), Ok(valid));
            // The same id in the counter totals map.
            let mut w = Writer::new();
            w.put_u64(KEYED_LAYOUT);
            put_varint(&mut w, keys);
            for key in 0..keys {
                w.put_str(&format!("k{key}"));
            }
            put_varint(&mut w, 1);
            put_varint(&mut w, id);
            w.put_u64(4);
            for _ in 0..5 {
                put_varint(&mut w, 0);
            }
            proptest::prop_assert_eq!(load_checked(w.as_bytes()), Ok(valid));
        }

        #[test]
        fn event_counts_up_to_u64_max_reserve_only_what_the_bytes_hold(
            count in 0u64..u64::MAX,
            near_max in 0u64..3,
            events in 0usize..40,
        ) {
            let count = match near_max {
                0 => count % 64,
                1 => count,
                _ => u64::MAX - count % 64,
            };
            // Counter events of key 0: key and kind, delta, value.
            let keyed = keyed_section(1, count, &[0, 0, 7].repeat(events));
            // Fewer events than present leave the rest unread, as any
            // section followed by more state does.
            proptest::prop_assert_eq!(load_checked(&keyed), Ok(count <= events as u64));
            if count > MAX_EVENTS as u64 {
                let err = Registry::new().load_state(&mut Reader::new(&keyed)).unwrap_err();
                proptest::prop_assert!(err.to_string().contains("cap"), "{err}");
            }
            let mut w = Writer::new();
            for _ in 0..4 {
                w.put_len(0);
            }
            w.put_u64(count);
            for _ in 0..events {
                w.put_u8(Kind::Counter as u8);
                w.put_str("k");
                w.put_u64(0);
                w.put_u64(7);
            }
            w.put_u64(0);
            proptest::prop_assert_eq!(load_checked(w.as_bytes()), Ok(count <= events as u64));
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
