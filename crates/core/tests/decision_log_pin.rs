//! Pins the BT-ADPT decision log from build to build.
//!
//! `system_checkpoint.rs` compares two runs of one build, so a change
//! that moved λ (or any other BT-ADPT decision) in both runs alike would
//! pass it. This test checks the CRC-64 of a short networking trial's
//! decision log against checksums captured before λ became lazily
//! computed: every record's time, stream, variance bits, λ bits, class,
//! send period and transmit flag must reproduce exactly, per noise
//! kernel.

use bz_core::scenario::NetworkTrial;
use bz_simcore::{NoiseKernel, SimDuration};
use bz_wsn::histogram::Stability;

/// Trial length: two λ update periods, with the door and window events
/// the trial schedules over it.
const MINUTES: u64 = 40;

/// CRC-64/XZ of the decision log under the V1 (Box–Muller) kernel.
const V1_CRC: u64 = 0xd045_6d01_63fa_ca92;
/// CRC-64/XZ of the decision log under the default V2 (ziggurat) kernel.
const V2_CRC: u64 = 0x33b4_b512_d025_9b57;

#[test]
fn the_decision_log_of_a_short_network_trial_is_pinned() {
    let outcome = NetworkTrial::paper_setup()
        .with_duration(SimDuration::from_mins(MINUTES))
        .run();
    let mut bytes = Vec::new();
    for d in &outcome.decisions {
        bytes.extend_from_slice(&d.at.as_millis().to_le_bytes());
        bytes.extend_from_slice(&(d.stream as u64).to_le_bytes());
        bytes.extend_from_slice(&d.variance.to_bits().to_le_bytes());
        match d.lambda {
            Some(lambda) => {
                bytes.push(1);
                bytes.extend_from_slice(&lambda.to_bits().to_le_bytes());
            }
            None => bytes.push(0),
        }
        bytes.push(match d.classified {
            None => 0,
            Some(Stability::Stable) => 1,
            Some(Stability::Transition) => 2,
        });
        bytes.extend_from_slice(&d.send_period.as_millis().to_le_bytes());
        bytes.push(u8::from(d.transmitted));
    }
    assert!(
        outcome.decisions.len() > 10_000,
        "{} decisions",
        outcome.decisions.len()
    );
    let expected = match NoiseKernel::from_env() {
        NoiseKernel::V1 => V1_CRC,
        NoiseKernel::V2 => V2_CRC,
    };
    let crc = bz_state::crc64::checksum(&bytes);
    assert_eq!(
        crc,
        expected,
        "decision log CRC {crc:#018x} over {} records",
        outcome.decisions.len()
    );
}
