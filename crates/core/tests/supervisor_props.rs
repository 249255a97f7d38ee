//! Property tests: whatever garbage a sensor stream carries — NaN,
//! infinities, impossible magnitudes, wild jumps — every reading the
//! supervisor passes to a controller is finite and physically plausible,
//! and a channel is only ever *trusted* on the strength of accepted
//! readings.

use bz_core::supervisor::{SensorHealthSupervisor, SupervisorConfig};
use bz_wsn::message::DataType;
use proptest::prelude::*;

/// Decodes a generated `(selector, magnitude)` pair into a reading,
/// mixing the special values a broken sensor or codec can emit.
fn decode_value(selector: u8, magnitude: f64) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => magnitude * 1.0e9,
        4 => -magnitude.abs(),
        _ => magnitude,
    }
}

/// The supervisor's plausibility range for the quantities under test.
fn range_for(data_type: DataType) -> (f64, f64) {
    match data_type {
        DataType::Temperature => (-5.0, 55.0),
        DataType::Humidity => (0.0, 100.0),
        DataType::Co2 => (50.0, 10_000.0),
        _ => unreachable!("not generated"),
    }
}

proptest! {
    #[test]
    fn accepted_readings_are_always_finite_and_in_range(
        readings in proptest::collection::vec((0u8..8, -200.0f64..200.0), 1..120),
        type_selector in 0u8..3,
        channel in 100u16..300,
        step_s in 1u64..10,
    ) {
        let data_type = match type_selector {
            0 => DataType::Temperature,
            1 => DataType::Humidity,
            _ => DataType::Co2,
        };
        let (lo, hi) = range_for(data_type);
        let mut supervisor = SensorHealthSupervisor::new(SupervisorConfig::default())
            .with_obs(bz_obs::Handle::isolated());
        let mut last_accept_t = None;
        for (i, &(selector, magnitude)) in readings.iter().enumerate() {
            let t = (i as u64 * step_s) as f64;
            let value = decode_value(selector, magnitude);
            if supervisor.validate(t, data_type, channel, value).is_ok() {
                prop_assert!(value.is_finite(), "accepted non-finite {value}");
                prop_assert!(
                    (lo..=hi).contains(&value),
                    "accepted {value} outside [{lo}, {hi}] for {data_type:?}"
                );
                last_accept_t = Some(t);
            }
        }
        // Trust exists only on the strength of a fresh accepted reading.
        let end_t = (readings.len() as u64 * step_s) as f64;
        if supervisor.channel_trusted(data_type, channel, end_t) {
            let at = last_accept_t.expect("trusted channel must have accepted a reading");
            prop_assert!(end_t - at <= bz_core::MAX_STALENESS_S);
        }
    }
}
