//! Property tests for the kernel's checkpoint support: restoring a saved
//! [`Rng`] or [`EventQueue`] must reproduce the exact future the original
//! would have had — stream position for the generator, pop order for the
//! queue — at arbitrary offsets into a run.

use bz_simcore::{EventQueue, Rng, SimTime};
use bz_state::{Persist, Reader, Writer};
use proptest::prelude::*;

fn round_trip_rng(rng: &Rng) -> Rng {
    let mut w = Writer::new();
    rng.save(&mut w);
    let bytes = w.into_bytes();
    Rng::load(&mut Reader::new(&bytes)).expect("saved rng decodes")
}

proptest! {
    #[test]
    fn rng_round_trip_preserves_stream_position(
        seed in 0u64..u64::MAX,
        warmup in 0usize..2_000,
        tail in 1usize..64,
    ) {
        let mut original = Rng::seed_from(seed);
        // Advance to an arbitrary mid-run position through a mix of draw
        // kinds, as a real simulation would.
        for i in 0..warmup {
            match i % 4 {
                0 => { let _ = original.next_u64(); }
                1 => { let _ = original.next_f64(); }
                2 => { let _ = original.standard_normal(); }
                _ => { let _ = original.below(97); }
            }
        }
        let mut restored = round_trip_rng(&original);
        prop_assert_eq!(&restored, &original);
        // The futures stay locked together draw for draw.
        for _ in 0..tail {
            prop_assert_eq!(restored.next_u64(), original.next_u64());
        }
    }

    #[test]
    fn event_queue_round_trip_preserves_pop_order(
        schedule in proptest::collection::vec((0u64..600_000, 0u64..4_096), 0..64),
        popped_before in 0usize..16,
    ) {
        let mut original: EventQueue<u64> = EventQueue::new();
        for (i, &(at_ms, payload)) in schedule.iter().enumerate() {
            original.schedule(SimTime::from_millis(at_ms), payload.wrapping_add(i as u64));
        }
        // Pop part of the queue so the snapshot lands mid-run, with the
        // sequence allocator ahead of the surviving entries.
        for _ in 0..popped_before.min(schedule.len()) {
            let _ = original.pop();
        }

        let mut w = Writer::new();
        original.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored: EventQueue<u64> = EventQueue::new();
        restored.load_state(&mut Reader::new(&bytes)).expect("saved queue decodes");

        prop_assert_eq!(restored.len(), original.len());
        // Drain both: times AND payloads must agree at every step, which
        // pins down FIFO tie-breaking among simultaneous events.
        loop {
            let expected = original.pop();
            let got = restored.pop();
            prop_assert_eq!(got, expected);
            if expected.is_none() {
                break;
            }
        }
        // New scheduling after a restore continues the sequence allocator,
        // so later ties still pop in schedule order.
        let t = SimTime::from_millis(999_999);
        restored.schedule(t, 111);
        restored.schedule(t, 222);
        prop_assert_eq!(restored.pop(), Some((t, 111)));
        prop_assert_eq!(restored.pop(), Some((t, 222)));
    }

    #[test]
    fn corrupted_rng_bytes_never_panic(
        seed in 0u64..u64::MAX,
        cut in 0usize..33,
        flip in 0usize..32,
    ) {
        let mut w = Writer::new();
        Rng::seed_from(seed).save(&mut w);
        let mut bytes = w.into_bytes();
        let flip = flip % bytes.len();
        bytes[flip] ^= 0x80;
        let cut = cut.min(bytes.len());
        // Whatever survives truncation+corruption either decodes to a
        // usable generator or errors cleanly; it must never panic.
        let _ = Rng::load(&mut Reader::new(&bytes[..cut]));
    }
}
