//! A seeded sample of the restore flip sweep (`examples/flip_sweep.rs`):
//! single-byte flips of a trial tenant's minute-5 snapshot, and f64 NaNs
//! written over it, each of which must be refused or step one minute
//! without a panic, within a time budget. The example runs every byte in
//! a release build.

use std::time::{Duration, Instant};

#[path = "../examples/flip_sweep.rs"]
#[allow(dead_code)]
mod flip_sweep;

use flip_sweep::{minute_five_snapshot, quiet_panics, run_case, Change, Verdict, MASKS};

/// Byte-flip cases in the sample: a few seconds of a debug build.
const CASES: usize = 600;

/// NaN cases in the sample, besides the fixed offsets below.
const NAN_CASES: usize = 150;

/// Offsets a NaN always goes to: the return water of the two radiant
/// loops, which a restore once took unchecked, so that the next step
/// panicked.
const NAN_OFFSETS: [usize; 2] = [489, 529];

/// The longest one case may take in a debug build: restore, then a
/// one-minute step.
const CASE_BUDGET: Duration = Duration::from_secs(2);

/// SplitMix64: the seeded choice of offsets and masks.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn sampled_snapshot_flips_are_refused_or_step() {
    quiet_panics();
    let (snapshot, system) = minute_five_snapshot();
    let mut state = 0x000F_11B5;
    let mut failures = Vec::new();
    let (mut refused, mut stepped) = (0, 0);
    let mut cases: Vec<(usize, Change)> = (0..CASES)
        .map(|_| {
            let offset = (splitmix(&mut state) % system as u64) as usize;
            let mask = MASKS[(splitmix(&mut state) % MASKS.len() as u64) as usize];
            (offset, Change::Xor(mask))
        })
        .collect();
    cases.extend(NAN_OFFSETS.map(|offset| (offset, Change::Nan)));
    cases.extend((0..NAN_CASES).map(|_| {
        let offset = (splitmix(&mut state) % (system as u64 - 7)) as usize;
        (offset, Change::Nan)
    }));
    for (offset, change) in cases {
        let started = Instant::now();
        let verdict = run_case(&snapshot, offset, change);
        let took = started.elapsed();
        match verdict {
            Verdict::Refused => refused += 1,
            Verdict::Stepped(_) => stepped += 1,
            Verdict::Panicked(at, what) => {
                let what: String = what.chars().take(160).collect();
                failures.push(format!("byte {offset} {change}: panic at {at}: {what}"));
            }
        }
        if took > CASE_BUDGET {
            failures.push(format!("byte {offset} {change} took {took:?}"));
        }
    }
    // Back to the default hook, so that a failed assertion prints.
    drop(std::panic::take_hook());
    assert!(
        failures.is_empty(),
        "{} cases failed ({refused} refused, {stepped} stepped):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        refused > 0 && stepped > 0,
        "{refused} refused, {stepped} stepped"
    );
}
