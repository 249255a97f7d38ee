//! Contention-aware transmission scheduling for AC-powered devices.
//!
//! AC devices have no energy budget, so they transmit on fixed periods —
//! but BubbleZERO packs dozens of them into one collision domain, and
//! naive deployments leave them phase-aligned (all boards boot together
//! and fire on the same second). §IV has the AC devices "adapt their
//! transmission schedules to alleviate channel contentions": when a
//! device's frame collides or finds the channel persistently busy, it
//! re-draws its phase offset within the period, desynchronizing the
//! population. Lower contention also means fewer retransmissions audible
//! to battery devices, indirectly saving their energy.

use bz_simcore::{Rng, SimDuration, SimTime};

use crate::channel::TxFailure;

/// A periodic transmission schedule with an adjustable phase.
#[derive(Debug, Clone)]
pub struct AcScheduler {
    period: SimDuration,
    offset: SimDuration,
    adaptive: bool,
    rng: Rng,
    reshuffles: u64,
}

impl AcScheduler {
    /// Creates a schedule firing every `period`, starting at phase zero
    /// (worst case: all devices aligned), with adaptation enabled.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: SimDuration, rng: Rng) -> Self {
        assert!(!period.is_zero(), "schedule period must be positive");
        Self {
            period,
            offset: SimDuration::ZERO,
            adaptive: true,
            rng,
            reshuffles: 0,
        }
    }

    /// Same schedule with adaptation disabled (the naive baseline).
    #[must_use]
    pub fn non_adaptive(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// The first firing instant at or after `now`.
    #[must_use]
    pub fn next_fire(&self, now: SimTime) -> SimTime {
        let period = self.period.as_millis();
        let offset = self.offset.as_millis() % period;
        let now_ms = now.as_millis();
        let k = now_ms.saturating_sub(offset).div_ceil(period);
        let mut fire = offset + k * period;
        if fire < now_ms {
            fire += period;
        }
        SimTime::from_millis(fire)
    }

    /// Feeds back the outcome of this device's last transmission. On
    /// contention failures an adaptive schedule re-draws its phase
    /// uniformly within the period; fading losses don't reshuffle (moving
    /// in time does not help against fading).
    pub fn report_failure(&mut self, failure: TxFailure) {
        if !self.adaptive {
            return;
        }
        match failure {
            TxFailure::Collision | TxFailure::ChannelBusy => {
                self.offset = SimDuration::from_millis(self.rng.below(self.period.as_millis()));
                self.reshuffles += 1;
            }
            TxFailure::Fading => {}
        }
    }

    /// Serializes the dynamic schedule state (phase, random stream,
    /// reshuffle count). The period and adaptation flag are construction
    /// parameters, rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.offset.save(w);
        self.rng.save(w);
        w.put_u64(self.reshuffles);
    }

    /// Restores the dynamic state saved by [`Self::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.offset = Persist::load(r)?;
        self.rng = Persist::load(r)?;
        self.reshuffles = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Network, NetworkConfig};
    use crate::message::{DataType, Message, NodeId};

    #[test]
    fn next_fire_respects_phase() {
        let s = AcScheduler::new(SimDuration::from_secs(1), Rng::seed_from(1));
        assert_eq!(s.next_fire(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(s.next_fire(SimTime::from_millis(1)), SimTime::from_secs(1));
        assert_eq!(s.next_fire(SimTime::from_secs(1)), SimTime::from_secs(1));
    }

    #[test]
    fn reshuffle_moves_offset_within_period() {
        let mut s = AcScheduler::new(SimDuration::from_secs(1), Rng::seed_from(2));
        s.report_failure(TxFailure::Collision);
        assert!(s.offset < s.period);
        assert_eq!(s.reshuffles, 1);
    }

    #[test]
    fn non_adaptive_never_moves() {
        let mut s = AcScheduler::new(SimDuration::from_secs(1), Rng::seed_from(3)).non_adaptive();
        s.report_failure(TxFailure::Collision);
        s.report_failure(TxFailure::ChannelBusy);
        assert_eq!(s.offset, SimDuration::ZERO);
        assert_eq!(s.reshuffles, 0);
    }

    #[test]
    fn fading_does_not_reshuffle() {
        let mut s = AcScheduler::new(SimDuration::from_secs(1), Rng::seed_from(4));
        s.report_failure(TxFailure::Fading);
        assert_eq!(s.reshuffles, 0);
    }

    /// End-to-end: a population of aligned AC devices on a shared channel,
    /// with and without schedule adaptation. Adaptation must improve the
    /// delivery ratio — this is the mechanism behind the paper's claim
    /// that it "reduces the packet loss and delay".
    fn run_population(adaptive: bool) -> f64 {
        let config = NetworkConfig {
            residual_loss: 0.0,
            ..NetworkConfig::telosb()
        };
        let mut network = Network::new(config, Rng::seed_from(100));
        let mut seed = Rng::seed_from(200);
        let period = SimDuration::from_millis(250);
        let mut schedulers: Vec<AcScheduler> = (0..24)
            .map(|_| {
                let s = AcScheduler::new(period, seed.fork());
                if adaptive {
                    s
                } else {
                    s.non_adaptive()
                }
            })
            .collect();
        let mut next: Vec<SimTime> = schedulers
            .iter()
            .map(|s| s.next_fire(SimTime::ZERO))
            .collect();

        let horizon = SimTime::from_secs(120);
        let mut now = SimTime::ZERO;
        while now < horizon {
            for (i, sched) in schedulers.iter().enumerate() {
                if next[i] <= now {
                    let msg = Message::on_channel(
                        NodeId::new(i as u16),
                        DataType::Temperature,
                        i as u16,
                        25.0,
                        now,
                    );
                    network.send(now, msg);
                    next[i] = sched.next_fire(now + SimDuration::from_millis(1));
                }
            }
            let _ = network.advance(now);
            for (msg, failure) in network.take_failures() {
                let idx = msg.source().get() as usize;
                schedulers[idx].report_failure(failure);
                next[idx] = schedulers[idx].next_fire(now + SimDuration::from_millis(1));
            }
            now += SimDuration::from_millis(1);
        }
        let _ = network.advance(horizon + SimDuration::from_secs(1));
        network.stats().delivery_ratio()
    }

    #[test]
    fn adaptation_improves_delivery_under_contention() {
        let naive = run_population(false);
        let adaptive = run_population(true);
        assert!(
            naive < 0.9,
            "aligned schedules should contend badly, got {naive}"
        );
        assert!(
            adaptive > naive + 0.1,
            "adaptive {adaptive} should clearly beat naive {naive}"
        );
        assert!(
            adaptive > 0.95,
            "adaptive should nearly eliminate loss, got {adaptive}"
        );
    }
}
