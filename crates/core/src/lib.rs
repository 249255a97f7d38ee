//! The BubbleZERO decomposed low-exergy HVAC control system.
//!
//! This crate is the paper's primary contribution rebuilt in Rust:
//!
//! - [`pid`] — the Proportional-Integral-Derivative controller both
//!   modules use for "rapid and robust" convergence (§III-B, §III-C);
//! - [`radiant`] — the radiant cooling module: computes the ceiling dew
//!   point from six wireless sensors, holds the mixed-water target
//!   `T_mix = max(T_supp, T_c_dew)` to prevent condensation, and runs the
//!   flow PID that converts the occupant's preferred temperature into
//!   pump voltages (Control-C-1 / Control-C-2 logic);
//! - [`ventilation`] — the distributed ventilation module: one controller
//!   per subspace deriving the airbox output dew-point target, the coil
//!   PID, the `F_vent = max(F_humd, F_CO₂)` fan lookup, and the CO₂flap
//!   actuation (Control-V-1 / V-2 / V-3 logic);
//! - [`system`] — the full closed loop: the thermal plant from
//!   `bz-thermal`, the 802.15.4 network from `bz-wsn`, battery devices
//!   running BT-ADPT, AC boards on staggered schedules, and the two
//!   control modules consuming *only what arrives over the air*;
//! - [`baseline`] — the conventional all-air "AirCon" comparator of
//!   Fig. 11, computed from the same plant physics rather than asserted;
//! - [`metrics`] — COP accounting with the paper's water-side heat
//!   formula, convergence detection, and comfort statistics;
//! - [`scenario`] — the canned experiments behind every figure: the
//!   13:00–14:45 afternoon trial (Fig. 10/11) and the 5-hour networking
//!   trial (Fig. 12–15);
//! - [`supervisor`] — the controller-side sensor-health layer: validates
//!   every delivered reading (range, rate, stuck-at), engages a
//!   condensation safe mode when dew-margin inputs go untrustworthy, and
//!   watches commanded-vs-sensed loop flow for stuck pumps;
//! - [`chaos`] — deterministic full-stack fault schedules (sensor +
//!   network + actuator) and the resilience metrics (time-to-detect,
//!   time-to-recover, comfort-violation minutes) that quantify the
//!   paper's "one subspace, not the whole room" degradation property;
//! - [`checkpoint`] — the one checkpoint policy every resumable run
//!   shares: run identities that always record the noise kernel, the
//!   resume scan, the snapshot cadence and the retention window.
//!
//! # Example
//!
//! ```no_run
//! use bz_core::scenario::AfternoonTrial;
//!
//! let outcome = AfternoonTrial::paper_setup().run();
//! let fig10 = outcome.trace.series("Subsp1.temperature").unwrap();
//! assert!(fig10.last().unwrap().value < 25.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod checkpoint;
pub mod devices;
pub mod json;
pub mod metrics;
pub mod pid;
pub mod radiant;
pub mod scenario;
pub mod session;
pub mod strategy;
pub mod supervisor;
pub mod system;
pub mod targets;
pub mod ventilation;
