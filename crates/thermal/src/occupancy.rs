//! Occupant loads.
//!
//! Occupants inject sensible heat, moisture (latent heat), and CO₂ into
//! their subspace. The paper's §IV-B event catalogue includes "occupant
//! density varying" and "occupant transition between different rooms" —
//! the schedule type here scripts exactly those.

use bz_simcore::SimTime;

use crate::zone::SubspaceId;

/// Physiological rates for one seated adult doing light office work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupantRates {
    /// Sensible heat, W per person.
    pub sensible_w: f64,
    /// Moisture release, kg/s per person.
    pub latent_kg_s: f64,
    /// CO₂ generation, m³/s of pure CO₂ per person.
    pub co2_m3s: f64,
}

impl Default for OccupantRates {
    fn default() -> Self {
        // ASHRAE seated/light-work values: ~70 W sensible, ~45 W latent
        // (≈ 1.85e-5 kg/s of vapor), ~0.0052 L/s of CO₂.
        Self {
            sensible_w: 70.0,
            latent_kg_s: 1.85e-5,
            co2_m3s: 5.2e-6,
        }
    }
}

/// A scripted change of headcount in one subspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyChange {
    /// When the change takes effect.
    pub at: SimTime,
    /// Which subspace.
    pub subspace: SubspaceId,
    /// New headcount in that subspace from `at` onward.
    pub count: u32,
}

/// A deterministic occupancy schedule: per-subspace headcounts changing at
/// scripted instants.
///
/// # Example
///
/// ```
/// use bz_simcore::SimTime;
/// use bz_thermal::occupancy::{OccupancyChange, OccupancySchedule};
/// use bz_thermal::zone::SubspaceId;
///
/// let schedule = OccupancySchedule::new(vec![OccupancyChange {
///     at: SimTime::from_mins(10),
///     subspace: SubspaceId::S3,
///     count: 2,
/// }]);
/// assert_eq!(schedule.headcount(SubspaceId::S3, SimTime::from_mins(5)), 0);
/// assert_eq!(schedule.headcount(SubspaceId::S3, SimTime::from_mins(15)), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OccupancySchedule {
    changes: Vec<OccupancyChange>,
    rates: OccupantRates,
}

impl OccupancySchedule {
    /// Builds a schedule from a list of changes (sorted internally).
    #[must_use]
    pub fn new(mut changes: Vec<OccupancyChange>) -> Self {
        changes.sort_by_key(|c| c.at);
        Self {
            changes,
            rates: OccupantRates::default(),
        }
    }

    /// An always-empty room (the paper's main trial: doors are opened but
    /// nobody enters).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The physiological rates in use.
    #[must_use]
    pub fn rates(&self) -> OccupantRates {
        self.rates
    }

    /// Headcount in `subspace` at time `now`.
    #[must_use]
    pub fn headcount(&self, subspace: SubspaceId, now: SimTime) -> u32 {
        self.changes
            .iter()
            .take_while(|c| c.at <= now)
            .filter(|c| c.subspace == subspace)
            .last()
            .map_or(0, |c| c.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_empty() {
        let s = OccupancySchedule::empty();
        for id in SubspaceId::ALL {
            assert_eq!(s.headcount(id, SimTime::from_hours(1)), 0);
        }
    }

    #[test]
    fn changes_apply_in_order() {
        let s = OccupancySchedule::new(vec![
            OccupancyChange {
                at: SimTime::from_mins(20),
                subspace: SubspaceId::S1,
                count: 0,
            },
            OccupancyChange {
                at: SimTime::from_mins(10),
                subspace: SubspaceId::S1,
                count: 3,
            },
        ]);
        assert_eq!(s.headcount(SubspaceId::S1, SimTime::from_mins(5)), 0);
        assert_eq!(s.headcount(SubspaceId::S1, SimTime::from_mins(15)), 3);
        assert_eq!(s.headcount(SubspaceId::S1, SimTime::from_mins(25)), 0);
    }

    #[test]
    fn change_is_inclusive_at_boundary() {
        let s = OccupancySchedule::new(vec![OccupancyChange {
            at: SimTime::from_mins(10),
            subspace: SubspaceId::S2,
            count: 1,
        }]);
        assert_eq!(s.headcount(SubspaceId::S2, SimTime::from_mins(10)), 1);
    }

    #[test]
    fn default_rates_are_plausible() {
        let r = OccupantRates::default();
        // Latent heat release ≈ latent_kg_s × 2.45 MJ/kg ≈ 45 W.
        let latent_w = r.latent_kg_s * 2.45e6;
        assert!((latent_w - 45.0).abs() < 3.0, "{latent_w}");
        assert!(r.sensible_w > 50.0 && r.sensible_w < 100.0);
    }
}
