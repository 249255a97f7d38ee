//! Building-physics substrate for the BubbleZERO reproduction.
//!
//! The paper evaluates its HVAC control on a physical laboratory built from
//! two shipping containers (60 m³ = 6 m × 5 m × 2 m, organized into four
//! equal subspaces). This crate replaces that hardware with a calibrated
//! lumped-parameter simulation that exposes the *same control surface* the
//! deployed system had:
//!
//! - per-subspace air states (temperature, humidity, CO₂) observable only
//!   through noisy [`sensors`],
//! - two radiant ceiling [`panel`]s fed by a mixing [`hydronics`] loop with
//!   a supply pump and a recycle pump (0–5 V inputs),
//! - four [`airbox`] dehumidifier/ventilation units with 8 °C cooling
//!   coils, DC fans, and CO₂ exhaust flaps,
//! - chilled-water tanks kept cold by Carnot-fraction [`chiller`]s with
//!   electrical power metering,
//! - a tropical [`weather`] boundary, [`occupancy`] loads, and the paper's
//!   scripted door/window [`disturbance`]s.
//!
//! [`plant::ThermalPlant`] assembles the pieces and advances them on a
//! fixed 1 s step driven by the `bz-simcore` clock.
//!
//! # Example
//!
//! ```
//! use bz_simcore::SimDuration;
//! use bz_thermal::plant::{ActuatorCommands, PlantConfig, ThermalPlant};
//!
//! let mut plant = ThermalPlant::new(PlantConfig::bubble_zero_lab());
//! // One minute with everything off: the room stays warm.
//! for _ in 0..60 {
//!     plant.step(SimDuration::from_secs(1), &ActuatorCommands::all_off());
//! }
//! assert!(plant.zone_temperature(bz_thermal::zone::SubspaceId::S1).get() > 27.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airbox;
pub mod chiller;
pub mod comfort;
pub mod disturbance;
pub mod faults;
pub mod hydronics;
pub mod occupancy;
pub mod panel;
pub mod plant;
pub mod sensors;
pub mod weather;
pub mod zone;
