//! Psychrometric properties, thermodynamic unit newtypes, and exergy math.
//!
//! This crate is the physical foundation of the BubbleZERO reproduction.
//! Every temperature, humidity, pressure, flow, and power quantity that moves
//! between the thermal plant, the controllers, and the sensor network is
//! expressed with dedicated unit newtypes ([`Celsius`], [`Percent`],
//! [`Watts`], …), and every moist-air property the paper's control logic
//! depends on (most importantly the Magnus dew-point formula from §III-B
//! of the paper, [`dew_point`]) lives here.
//!
//! # Example
//!
//! Compute the dew point the radiant-cooling controller uses to decide its
//! mixed-water temperature target:
//!
//! ```
//! use bz_psychro::{Celsius, Percent, dew_point};
//!
//! let room = Celsius::new(25.0);
//! let humidity = Percent::new(65.0);
//! let dew = dew_point(room, humidity);
//! assert!(dew < room);
//! assert!((dew.get() - 18.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exergy;
mod magnus;
mod moist_air;
mod units;
mod water;

pub use error::PsychroError;
pub use exergy::{carnot_cop_cooling, exergy_of_heat, CarnotChiller};
pub use magnus::{
    dew_point, dew_point_checked, relative_humidity_from_dew_point, saturation_vapor_pressure,
    vapor_pressure, MAGNUS_A, MAGNUS_B,
};
pub use moist_air::{
    dry_air_density, humidity_ratio_from_dew_point, humidity_ratio_from_rh,
    humidity_ratio_from_vapor_pressure, latent_heat_of_vaporization, moist_air_enthalpy,
    moist_air_specific_volume, relative_humidity_from_humidity_ratio,
    vapor_pressure_from_humidity_ratio, wet_bulb_temperature, CP_DRY_AIR, CP_WATER_VAPOR,
    STANDARD_PRESSURE,
};
pub use units::{
    Celsius, CubicMetersPerSecond, DeltaCelsius, Joules, Kelvin, KgPerKg, KgPerSecond, Kilograms,
    Pascals, Percent, Ppm, Seconds, Volts, Watts,
};
pub use water::{water_density, water_specific_heat, water_volumetric_heat_capacity, CP_WATER};
