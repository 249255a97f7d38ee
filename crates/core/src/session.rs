//! Externally-paced driving of a simulation run.
//!
//! The [`Session`] trait is the contract of every resumable run: step a
//! minute, report the clock, checkpoint on demand. The plain closed loop
//! ([`TenantSession`]), the chaos run ([`crate::chaos::ChaosRun`]), the
//! bz-predict strategy run and `bzctl`'s trial and endurance runs
//! implement it. `bz-serve` steps any of them behind one `dyn Session`,
//! one request at a time; the batch runners (`bzctl`'s resumable
//! commands, every sweep run) step them to their end through
//! [`crate::checkpoint::drive`].
//!
//! A [`TenantSession`] packages the per-minute cadence of the closed loop
//! (60 simulated seconds, then a counter sample into the session's
//! `bz_obs` registry), so a tenant driven one request at a time exports
//! **byte-identical** JSONL to the same sweep run offline. Every session
//! is checkpointable through the same `bz-state` seam as the system
//! itself: [`Session::save_state`] round-trips through
//! [`Session::load_state`] into a byte-identical continuation.

use bz_thermal::airbox::FanLevel;
use bz_thermal::zone::SubspaceId;

use crate::system::BubbleZeroSystem;

/// Readback of one airbox / CO₂flap actuation pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirboxReadback {
    /// Coil water pump voltage, V.
    pub coil_pump_v: f64,
    /// Fan speed setting label (`off`, `l1` … `l4`).
    pub fan: &'static str,
    /// Whether the CO₂flap is driven open.
    pub flap_open: bool,
}

/// A point-in-time setpoint/actuation readback for a tenant: the zone
/// conditions the controllers are reacting to and the actuator commands
/// they most recently issued. Everything here is a deterministic function
/// of the simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct SetpointReadback {
    /// Simulation time of the readback, ms.
    pub now_ms: u64,
    /// Per-subspace zone temperature, °C (S1..S4 order).
    pub zone_temp_c: [f64; 4],
    /// Per-subspace zone dew point, °C (S1..S4 order).
    pub zone_dew_c: [f64; 4],
    /// Per-loop radiant pump voltages `(supply, recycle)`, V.
    pub radiant_v: [(f64, f64); 2],
    /// Per-subspace airbox actuation.
    pub airboxes: [AirboxReadback; 4],
    /// Name of the active control strategy.
    pub strategy: &'static str,
}

/// One resumable simulation run, stepped from the outside a minute at a
/// time: measurements in, setpoints out, checkpoint on demand.
pub trait Session {
    /// Simulated milliseconds completed so far.
    fn now_ms(&self) -> u64;

    /// True once the scenario duration has fully run.
    fn is_done(&self) -> bool;

    /// Advances one simulated minute (less at the end of a run whose
    /// duration is not a whole number of minutes). A no-op once the
    /// session [`is_done`](Self::is_done).
    fn step_minute(&mut self);

    /// Serializes the dynamic run state for checkpointing.
    fn save_state(&self, w: &mut bz_state::Writer);

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// session freshly built from the *same* configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`bz_state::StateError`] for truncated or corrupt
    /// payloads, or a snapshot taken past this session's duration.
    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError>;

    /// The current setpoint/actuation readback, for sessions that expose
    /// one (`None` reports status only).
    fn readback(&self) -> Option<SetpointReadback> {
        None
    }

    /// Advances up to `minutes` simulated minutes, stopping early at the
    /// end of the run, and returns how many were actually stepped.
    fn step_minutes(&mut self, minutes: u64) -> u64 {
        let mut stepped = 0;
        while stepped < minutes && !self.is_done() {
            self.step_minute();
            stepped += 1;
        }
        stepped
    }
}

/// A closed-loop system plus its scenario duration, stepped from the
/// outside one minute (or one batch of minutes) at a time.
#[derive(Debug)]
pub struct TenantSession {
    system: BubbleZeroSystem,
    obs: bz_obs::Handle,
    total_minutes: u64,
}

impl TenantSession {
    /// Wraps a freshly built system. `obs` must be the handle the system
    /// records into (the one passed to `BubbleZeroSystem::with_obs` /
    /// `with_strategy`) — the session samples counters through it at the
    /// per-minute cadence the offline runners use.
    #[must_use]
    pub fn new(system: BubbleZeroSystem, obs: bz_obs::Handle, total_minutes: u64) -> Self {
        Self {
            system,
            obs,
            total_minutes,
        }
    }

    /// The session's metrics handle.
    #[must_use]
    pub fn obs(&self) -> &bz_obs::Handle {
        &self.obs
    }

    /// The closed-loop system, for end-of-run summaries.
    #[must_use]
    pub fn system(&self) -> &BubbleZeroSystem {
        &self.system
    }

    /// Advances one simulated minute — 60 one-second steps, then the
    /// per-minute counter sample that puts trajectories (not just totals)
    /// in the export, exactly as `bzctl trial` does.
    /// A no-op once the session [`is_done`](Session::is_done). Inherent,
    /// so callers can step a `TenantSession` without importing [`Session`].
    pub fn step_minute(&mut self) {
        if self.is_done() {
            return;
        }
        self.system.run_seconds(60);
        self.obs.record_counters(self.system.now().as_millis());
    }
}

impl Session for TenantSession {
    fn now_ms(&self) -> u64 {
        self.system.now().as_millis()
    }

    fn is_done(&self) -> bool {
        self.now_ms() / 60_000 >= self.total_minutes
    }

    fn step_minute(&mut self) {
        TenantSession::step_minute(self);
    }

    /// The system snapshot already carries the obs registry, so the
    /// metrics trajectory survives a restore.
    fn save_state(&self, w: &mut bz_state::Writer) {
        self.system.save_state(w);
        w.put_u64(self.total_minutes);
    }

    fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        self.system.load_state(r)?;
        let total_minutes = r.take_u64()?;
        if total_minutes != self.total_minutes {
            return Err(bz_state::StateError::Invalid {
                what: "TenantSession",
                reason: format!(
                    "snapshot is of a {total_minutes}-minute run, this session runs {} minutes",
                    self.total_minutes
                ),
            });
        }
        let minute = self.now_ms() / 60_000;
        if minute > self.total_minutes {
            return Err(bz_state::StateError::Invalid {
                what: "TenantSession",
                reason: format!(
                    "snapshot is {minute} minute(s) into a run of only {} minute(s)",
                    self.total_minutes
                ),
            });
        }
        Ok(())
    }

    fn readback(&self) -> Option<SetpointReadback> {
        let plant = self.system.plant();
        let commands = self.system.commands();
        let mut zone_temp_c = [0.0; 4];
        let mut zone_dew_c = [0.0; 4];
        for (i, id) in SubspaceId::ALL.iter().enumerate() {
            zone_temp_c[i] = plant.zone_temperature(*id).get();
            zone_dew_c[i] = plant.zone_dew_point(*id).get();
        }
        let radiant_v = [
            (
                commands.radiant[0].supply_voltage.get(),
                commands.radiant[0].recycle_voltage.get(),
            ),
            (
                commands.radiant[1].supply_voltage.get(),
                commands.radiant[1].recycle_voltage.get(),
            ),
        ];
        let airboxes = commands.airboxes.map(|airbox| AirboxReadback {
            coil_pump_v: airbox.coil_pump_voltage.get(),
            fan: fan_label(airbox.fan),
            flap_open: airbox.flap_open,
        });
        Some(SetpointReadback {
            now_ms: self.now_ms(),
            zone_temp_c,
            zone_dew_c,
            radiant_v,
            airboxes,
            strategy: self.system.strategy_name(),
        })
    }
}

/// Reads the run second a chaos or strategy payload ends with, and
/// checks it against the restored `system`'s clock and the run's length.
///
/// # Errors
///
/// A second past `total_s`, or one the system clock disagrees with.
pub fn load_run_second(
    r: &mut bz_state::Reader<'_>,
    what: &'static str,
    system: &BubbleZeroSystem,
    total_s: u64,
) -> Result<(), bz_state::StateError> {
    let second = r.take_u64()?;
    let system_ms = system.now().as_millis();
    let reason = if second > total_s {
        format!("checkpoint is {second}s into a run of only {total_s}s")
    } else if second * 1_000 != system_ms {
        format!("session clock {second}s, system clock {system_ms}ms")
    } else {
        return Ok(());
    };
    Err(bz_state::StateError::Invalid { what, reason })
}

/// The wire label of a fan level.
fn fan_label(level: FanLevel) -> &'static str {
    match level {
        FanLevel::Off => "off",
        FanLevel::L1 => "l1",
        FanLevel::L2 => "l2",
        FanLevel::L3 => "l3",
        FanLevel::L4 => "l4",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use bz_thermal::plant::PlantConfig;

    fn session(seed: u64, minutes: u64) -> TenantSession {
        let obs = bz_obs::Handle::isolated();
        let config =
            SystemConfig::paper_deployment(PlantConfig::bubble_zero_lab()).with_run_seed(seed);
        let system = BubbleZeroSystem::with_obs(config, obs.clone());
        TenantSession::new(system, obs, minutes)
    }

    fn export(session: &TenantSession) -> Vec<u8> {
        let mut bytes = Vec::new();
        session.obs().write_jsonl(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn externally_paced_stepping_matches_the_offline_loop() {
        // The offline cadence: run_seconds(60) + record_counters, 3 times.
        let offline = session(7, 3);
        let (mut system, obs) = (offline.system, offline.obs);
        for _ in 0..3 {
            system.run_seconds(60);
            obs.record_counters(system.now().as_millis());
        }
        let mut expected = Vec::new();
        obs.write_jsonl(&mut expected).unwrap();

        // The same scenario driven through the session API, mixed paces.
        let mut paced = session(7, 3);
        paced.step_minute();
        assert_eq!(paced.now_ms(), 60_000);
        assert_eq!(paced.step_minutes(99), 2, "clamped at the scenario end");
        assert!(paced.is_done());
        // Further steps past the end are no-ops.
        paced.step_minute();
        assert_eq!(paced.step_minutes(99), 0);
        assert_eq!(paced.now_ms(), 180_000);
        assert_eq!(export(&paced), expected);
    }

    #[test]
    fn save_restore_continues_byte_identically() {
        let mut uninterrupted = session(11, 4);
        uninterrupted.step_minutes(4);
        let expected = export(&uninterrupted);

        let mut first = session(11, 4);
        first.step_minutes(2);
        let mut w = bz_state::Writer::new();
        first.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = session(11, 4);
        restored
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap();
        assert_eq!(restored.now_ms(), 120_000);
        restored.step_minutes(2);
        assert_eq!(export(&restored), expected);
    }

    #[test]
    fn restore_over_an_advanced_session_continues_byte_identically() {
        // Restoring rewinds the counts each part keeps; the counters
        // published afterwards must grow from the restored counts.
        let mut uninterrupted = session(13, 4);
        uninterrupted.step_minutes(4);
        let expected = export(&uninterrupted);

        let mut rewound = session(13, 4);
        rewound.step_minutes(2);
        let mut w = bz_state::Writer::new();
        rewound.save_state(&mut w);
        let minute_two = w.into_bytes();
        rewound.step_minutes(2);
        rewound
            .load_state(&mut bz_state::Reader::new(&minute_two))
            .unwrap();
        assert_eq!(rewound.now_ms(), 120_000);
        rewound.step_minutes(2);
        assert_eq!(export(&rewound), expected);
    }

    #[test]
    fn load_rejects_a_snapshot_of_a_different_duration() {
        let mut donor = session(5, 8);
        donor.step_minute();
        let mut w = bz_state::Writer::new();
        donor.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut other = session(5, 4);
        let err = other
            .load_state(&mut bz_state::Reader::new(&bytes))
            .unwrap_err();
        assert!(err.to_string().contains("8-minute"), "{err}");
    }

    #[test]
    fn readback_reports_all_zones_and_actuators() {
        let mut s = session(3, 2);
        s.step_minute();
        let readback = s.readback().expect("the closed loop reports setpoints");
        assert_eq!(readback.now_ms, 60_000);
        assert_eq!(readback.strategy, "reactive");
        assert!(readback.zone_temp_c.iter().all(|t| (0.0..60.0).contains(t)));
        assert!(readback.airboxes.iter().all(|a| a.coil_pump_v >= 0.0));
    }
}
