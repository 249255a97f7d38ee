//! Byte pins for every encoding the metrics registry produces.
//!
//! One fixed recording sequence — static, `format!`-built and
//! escape-needing keys, nested spans, non-finite gauges, histograms and
//! two counter samples — is exported through the JSONL writer, the CSV
//! writer, a streamed export, the paged telemetry tap and the checkpoint
//! codec. The export CRC-64/XZ constants below were captured from the
//! registry that stored one owned `Event` per record, before key
//! interning; any change to how the registry stores its data must keep
//! reproducing them byte for byte. A restored registry must then
//! re-export the same bytes and keep recording exactly like the original.
//!
//! The checkpoint codec has two pins: [`STATE_CRC`] for the keyed layout
//! this build writes (envelope format 3), and [`LEGACY_STATE_CRC`] for
//! the bytes the same sequence saved to in the layout of envelope format
//! 2. Those bytes are kept in `fixtures/pinned_state_v2.bin` and must
//! still restore to the pinned exports.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use bz_obs::{Registry, DEFAULT_BUCKETS};
use bz_state::crc64::checksum;

/// CRC-64/XZ of the buffered JSONL export.
const JSONL_CRC: u64 = 0x0f6d_062f_c429_32c5;
/// CRC-64/XZ of the CSV export.
const CSV_CRC: u64 = 0xd5c1_06ac_21a6_e9ac;
/// CRC-64/XZ of the concatenated incremental-tap pages.
const TAP_CRC: u64 = 0xa7d3_5931_7bc4_0ea6;
/// CRC-64/XZ of the `save_state` bytes.
const STATE_CRC: u64 = 0xa9cd_0cb3_ea9e_71cd;
/// CRC-64/XZ of the `save_state` bytes as envelope format 2 wrote them,
/// each event spelling out its key (the fixture below).
const LEGACY_STATE_CRC: u64 = 0x1816_8646_0966_9a42;

/// The whole sequence's registry, saved in the legacy layout.
const LEGACY_STATE: &[u8] = include_bytes!("fixtures/pinned_state_v2.bin");

/// Custom histogram edges (a non-default set that restores as an owned copy).
const CUSTOM_EDGES: &[f64] = &[-1.0, 0.0, 0.25, 1e9];

/// Keys that need JSON escaping or skip the escaper's fast path.
const AWKWARD_KEYS: [&str; 6] = [
    "ingest.a\"b",
    "path\\to\\key",
    "line\nbreak",
    "tab\there",
    "bell\u{7}",
    "ünïcode key",
];

/// A cloneable in-memory sink for the streaming exporter.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

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

/// The first half of the fixed sequence: keys of every flavour, nested
/// spans, non-finite gauges, histograms and the first counter sample.
fn record_first_half(registry: &mut Registry) {
    registry.counter_add("wsn.packets.sent", 3);
    for node in [21u32, 3, 7] {
        registry.counter_add(format!("wsn.node.{node}.sent"), u64::from(node));
    }
    let per_node = bz_obs::MetricKey::from(format!("wsn.node.{}.sent", 21));
    registry.counter_add_ref(&per_node, 2);
    registry.counter_add("saturating", u64::MAX - 1);
    registry.counter_add("saturating", 9);
    for (i, key) in AWKWARD_KEYS.iter().enumerate() {
        registry.gauge_set(*key, 100 + i as u64, i as f64 * 0.5);
    }
    registry.gauge_set("thermal.chiller.radiant_w", 1_000, 145.25);
    registry.gauge_set("gauge.nan", 1_000, f64::NAN);
    registry.gauge_set("gauge.inf", 1_001, f64::INFINITY);
    registry.gauge_set("gauge.neg_inf", 1_002, f64::NEG_INFINITY);
    registry.gauge_set("gauge.neg_zero", 1_003, -0.0);
    registry.gauge_set("gauge.tiny", 1_004, 1e-300);
    registry.gauge_set("gauge.huge", 1_005, 1.5e300);
    // One key used as counter, gauge and span alike.
    registry.counter_add("dual", 1);
    registry.gauge_set("dual", 1_006, 2.5);
    // Nested spans: children complete (and record) before their parent.
    registry.span_complete("core.identify", 2_000, 30, 2, 11);
    registry.span_complete("core.optimize", 2_030, 20, 2, 12);
    registry.span_complete(format!("core.plan.{}", 4), 2_000, 60, 1, 13);
    registry.span_complete("core.control_tick", 2_000, 100, 0, 14);
    registry.span_complete("dual", 2_100, 0, 0, 15);
    registry.span_complete("ingest.a\"b", 2_200, 5, u32::MAX, 16);
    registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 2.0);
    registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 3_000.0);
    registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, f64::NAN);
    registry.observe("custom.buckets", CUSTOM_EDGES, -5.0);
    registry.observe("custom.buckets", CUSTOM_EDGES, 0.1);
    registry.observe(format!("hist.{}", "built"), DEFAULT_BUCKETS, 0.75);
    registry.record_counters(60_000);
}

/// The second half: repeats of known keys, one new key of each kind, a
/// second counter sample.
fn record_second_half(registry: &mut Registry) {
    registry.counter_add("wsn.packets.sent", 4);
    registry.counter_add(format!("wsn.node.{}.sent", 99), 1);
    registry.counter_add("a.new.counter", 5);
    registry.gauge_set("ingest.a\"b", 61_000, 7.125);
    registry.gauge_set(format!("ingest.{}", "late"), 61_001, -3.75);
    registry.gauge_set("gauge.nan", 61_002, 0.1 + 0.2);
    registry.span_complete("core.identify", 62_000, 31, 2, 21);
    registry.span_complete("core.control_tick", 62_000, 1_000, 0, 22);
    registry.span_complete("span.new", 62_500, 3, 1, 23);
    registry.observe("custom.buckets", CUSTOM_EDGES, 2e9);
    registry.observe("wsn.btadpt.send_period_s", DEFAULT_BUCKETS, 0.5);
    registry.record_counters(120_000);
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

fn state(registry: &Registry) -> Vec<u8> {
    let mut w = bz_state::Writer::new();
    registry.save_state(&mut w);
    w.into_bytes()
}

/// Records the whole sequence, tapping the event stream after each half.
/// Returns the registry and the concatenated tap pages.
fn record_with_tap() -> (Registry, Vec<u8>) {
    let mut registry = Registry::new();
    let mut pages = Vec::new();
    let mut cursor = 0;
    record_first_half(&mut registry);
    cursor = registry.write_events_from(cursor, &mut pages).unwrap();
    // A poll with nothing new writes nothing.
    assert_eq!(
        registry.write_events_from(cursor, &mut pages).unwrap(),
        cursor
    );
    record_second_half(&mut registry);
    let end = registry.write_events_from(cursor, &mut pages).unwrap();
    assert_eq!(end, registry.events_len());
    (registry, pages)
}

#[test]
fn every_encoding_matches_its_pinned_checksum() {
    let (registry, pages) = record_with_tap();
    let (jsonl, csv, state) = (jsonl(&registry), csv(&registry), state(&registry));
    assert!(
        jsonl.starts_with(&pages),
        "tap pages are the event-line prefix"
    );
    let report = format!(
        "jsonl {:#018x} csv {:#018x} tap {:#018x} state {:#018x}",
        checksum(&jsonl),
        checksum(&csv),
        checksum(&pages),
        checksum(&state)
    );
    assert_eq!(checksum(&jsonl), JSONL_CRC, "{report}");
    assert_eq!(checksum(&csv), CSV_CRC, "{report}");
    assert_eq!(checksum(&pages), TAP_CRC, "{report}");
    assert_eq!(checksum(&state), STATE_CRC, "{report}");
}

#[test]
fn streamed_export_matches_the_pinned_jsonl() {
    let sink = SharedBuf::default();
    let mut registry = Registry::new();
    record_first_half(&mut registry);
    // Switching mid-run flushes the buffered events first.
    registry.stream_to(Box::new(sink.clone()));
    record_second_half(&mut registry);
    assert_eq!(registry.events_len(), 0, "streamed events are not buffered");
    registry.finish_stream().unwrap();
    assert_eq!(checksum(&sink.bytes()), JSONL_CRC);
}

#[test]
fn restored_state_re_exports_and_keeps_recording_identically() {
    let (mut original, pages) = record_with_tap();
    let saved = state(&original);

    let mut restored = Registry::new();
    restored.gauge_set("stale", 1, 9.9); // wiped by the load
    let mut reader = bz_state::Reader::new(&saved);
    restored.load_state(&mut reader).unwrap();
    assert!(reader.is_exhausted());

    assert_eq!(jsonl(&restored), jsonl(&original));
    assert_eq!(csv(&restored), csv(&original));
    assert_eq!(state(&restored), saved);
    let mut restored_pages = Vec::new();
    restored.write_events_from(0, &mut restored_pages).unwrap();
    assert_eq!(restored_pages, pages);

    // Both keep recording — known keys, restored keys and new ones.
    for registry in [&mut original, &mut restored] {
        record_second_half(registry);
        registry.gauge_set("after.restore", 200_000, 1.0);
        registry.span_complete("core.control_tick", 200_000, 7, 0, 0);
    }
    assert_eq!(jsonl(&restored), jsonl(&original));
    assert_eq!(csv(&restored), csv(&original));
    assert_eq!(state(&restored), state(&original));
}

#[test]
fn truncated_state_is_an_error_and_leaves_the_registry_unchanged() {
    let (registry, _) = record_with_tap();
    let saved = state(&registry);
    let mut target = Registry::new();
    target.gauge_set("kept", 5, 1.0);
    let before = jsonl(&target);
    for cut in [0, 1, 9, saved.len() / 3, saved.len() / 2, saved.len() - 1] {
        let result = target.load_state(&mut bz_state::Reader::new(&saved[..cut]));
        assert!(result.is_err(), "a {cut}-byte prefix must not load");
        assert_eq!(jsonl(&target), before);
    }
}

#[test]
fn legacy_state_restores_to_the_pinned_exports() {
    assert_eq!(checksum(LEGACY_STATE), LEGACY_STATE_CRC);
    let mut restored = Registry::new();
    let mut reader = bz_state::Reader::new(LEGACY_STATE);
    restored.load_state(&mut reader).unwrap();
    assert!(reader.is_exhausted());
    assert_eq!(checksum(&jsonl(&restored)), JSONL_CRC);
    assert_eq!(checksum(&csv(&restored)), CSV_CRC);
    let mut pages = Vec::new();
    restored.write_events_from(0, &mut pages).unwrap();
    assert_eq!(checksum(&pages), TAP_CRC);

    // Re-saved in the keyed layout, it restores to the same exports, and
    // it keeps recording like the registry that never stopped.
    let resaved = state(&restored);
    assert!(resaved.len() < LEGACY_STATE.len());
    let mut again = Registry::new();
    again
        .load_state(&mut bz_state::Reader::new(&resaved))
        .unwrap();
    assert_eq!(state(&again), resaved);
    let (mut original, _) = record_with_tap();
    for registry in [&mut original, &mut restored, &mut again] {
        record_second_half(registry);
        registry.gauge_set("after.restore", 200_000, 1.0);
    }
    assert_eq!(jsonl(&restored), jsonl(&original));
    assert_eq!(jsonl(&again), jsonl(&original));
    assert_eq!(csv(&again), csv(&original));
}
