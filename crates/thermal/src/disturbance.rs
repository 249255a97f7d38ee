//! Scripted door/window disturbance events.
//!
//! §V-A of the paper injects two door openings (15 s at 14:05 and 2 min at
//! 14:25); §V-C triggers door/window events roughly every 30 minutes for
//! five hours. An opening creates a bulk air-exchange path between the
//! outdoors and the subspaces nearest the opening — the door is in
//! subspace 1 and "close to subspace 2", which is why those two react
//! first in Figure 10.

use bz_simcore::{Rng, SimDuration, SimTime};

use crate::zone::SubspaceId;

/// The kind of opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpeningKind {
    /// The laboratory door (in subspace 1, adjacent to subspace 2).
    Door,
    /// A window (in subspace 4, adjacent to subspace 3).
    Window,
}

impl OpeningKind {
    /// Air-exchange flow each subspace receives while this opening is
    /// fully open, m³/s. The primary subspace takes the bulk of the
    /// exchange; the adjacent one a reduced share; far subspaces are only
    /// reached indirectly through inter-zone mixing.
    #[must_use]
    pub fn exchange_profile(self) -> [(SubspaceId, f64); 2] {
        match self {
            // Buoyancy-driven counterflow through the doorway, reduced by
            // the small indoor/outdoor temperature difference and the
            // entry vestibule; calibrated to the paper's ~0.6 K dew bump
            // for a 15 s opening.
            Self::Door => [(SubspaceId::S1, 0.07), (SubspaceId::S2, 0.035)],
            Self::Window => [(SubspaceId::S4, 0.035), (SubspaceId::S3, 0.018)],
        }
    }
}

/// One scripted opening event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpeningEvent {
    /// When the opening begins.
    pub at: SimTime,
    /// How long it stays open.
    pub duration: SimDuration,
    /// What is opened.
    pub kind: OpeningKind,
}

impl OpeningEvent {
    /// True if the opening is active at `now` (half-open interval
    /// `[at, at + duration)`).
    #[must_use]
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.at && now < self.at + self.duration
    }
}

/// A deterministic schedule of opening events.
#[derive(Debug, Clone, Default)]
pub struct DisturbanceSchedule {
    events: Vec<OpeningEvent>,
}

impl DisturbanceSchedule {
    /// Builds a schedule from a list of events (sorted internally).
    #[must_use]
    pub fn new(mut events: Vec<OpeningEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// No disturbances at all.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's Figure 10 script: a 15 s door opening at 14:05 and a
    /// 2 min door opening at 14:25 for a trial starting at 13:00.
    #[must_use]
    pub fn figure10_afternoon() -> Self {
        Self::new(vec![
            OpeningEvent {
                at: SimTime::from_mins(65),
                duration: SimDuration::from_secs(15),
                kind: OpeningKind::Door,
            },
            OpeningEvent {
                at: SimTime::from_mins(85),
                duration: SimDuration::from_secs(120),
                kind: OpeningKind::Door,
            },
        ])
    }

    /// The §V-C networking trial script: alternating door/window events
    /// roughly every 30 minutes over `total` simulated time, with ±3 min
    /// of seeded jitter. Each opening lasts 30–90 s.
    #[must_use]
    pub fn periodic_events(total: SimDuration, rng: &mut Rng) -> Self {
        let events = (0..Self::periodic_event_count(total))
            .map(|k| {
                let t = SimDuration::from_mins(25 + 30 * k).as_secs_f64();
                let jitter = rng.uniform(-180.0, 180.0);
                OpeningEvent {
                    at: SimTime::ZERO + SimDuration::from_secs_f64((t + jitter).max(0.0)),
                    duration: SimDuration::from_secs_f64(rng.uniform(30.0, 90.0)),
                    kind: if k % 2 == 0 {
                        OpeningKind::Door
                    } else {
                        OpeningKind::Window
                    },
                }
            })
            .collect();
        Self::new(events)
    }

    /// How many events [`periodic_events`](Self::periodic_events)
    /// schedules over `total`: one every 30 minutes from minute 25, each
    /// nominally starting more than 2 minutes before the end.
    #[must_use]
    pub fn periodic_event_count(total: SimDuration) -> u64 {
        total
            .as_millis()
            .saturating_sub(27 * 60_000)
            .div_ceil(30 * 60_000)
    }

    /// The scripted events, in time order.
    #[must_use]
    pub fn events(&self) -> &[OpeningEvent] {
        &self.events
    }

    /// Per-subspace outdoor air-exchange flows active at `now`, m³/s.
    #[must_use]
    pub fn exchange_at(&self, now: SimTime) -> [f64; 4] {
        let mut flows = [0.0; 4];
        for event in &self.events {
            if event.is_active(now) {
                for (subspace, flow) in event.kind.exchange_profile() {
                    flows[subspace.index()] += flow;
                }
            }
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_script_matches_paper_times() {
        let s = DisturbanceSchedule::figure10_afternoon();
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].at, SimTime::from_mins(65)); // 14:05
        assert_eq!(s.events()[0].duration, SimDuration::from_secs(15));
        assert_eq!(s.events()[1].at, SimTime::from_mins(85)); // 14:25
        assert_eq!(s.events()[1].duration, SimDuration::from_secs(120));
    }

    #[test]
    fn door_affects_subspaces_one_and_two_only() {
        let s = DisturbanceSchedule::figure10_afternoon();
        let during = SimTime::from_mins(65) + SimDuration::from_secs(5);
        let flows = s.exchange_at(during);
        assert!(flows[0] > 0.0 && flows[1] > 0.0);
        assert!(flows[0] > flows[1], "door subspace gets the larger share");
        assert_eq!(flows[2], 0.0);
        assert_eq!(flows[3], 0.0);
    }

    #[test]
    fn no_exchange_outside_events() {
        let s = DisturbanceSchedule::figure10_afternoon();
        assert_eq!(s.exchange_at(SimTime::from_mins(30)), [0.0; 4]);
        // Half-open interval: inactive exactly at the end.
        let end = SimTime::from_mins(65) + SimDuration::from_secs(15);
        assert_eq!(s.exchange_at(end), [0.0; 4]);
    }

    #[test]
    fn active_interval_is_half_open() {
        let e = OpeningEvent {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            kind: OpeningKind::Door,
        };
        assert!(e.is_active(SimTime::from_secs(10)));
        assert!(e.is_active(SimTime::from_millis(14_999)));
        assert!(!e.is_active(SimTime::from_secs(15)));
        assert!(!e.is_active(SimTime::from_secs(9)));
    }

    #[test]
    fn periodic_events_have_expected_cadence() {
        let mut rng = Rng::seed_from(42);
        let s = DisturbanceSchedule::periodic_events(SimDuration::from_hours(5), &mut rng);
        // ~every 30 min over 5 h: expect 9–10 events.
        assert!(
            (8..=11).contains(&s.events().len()),
            "got {} events",
            s.events().len()
        );
        // Alternating kinds.
        assert_eq!(s.events()[0].kind, OpeningKind::Door);
        assert!(s.events().windows(2).all(|w| w[1].at >= w[0].at));
    }

    #[test]
    fn periodic_event_count_starts_events_before_the_last_two_minutes() {
        let count = |ms| DisturbanceSchedule::periodic_event_count(SimDuration::from_millis(ms));
        let min = 60_000;
        assert_eq!(count(27 * min), 0);
        assert_eq!(count(27 * min + 1), 1);
        assert_eq!(count(57 * min), 1);
        assert_eq!(count(57 * min + 1), 2);
        assert_eq!(count(u64::MAX), 10_248_191_152_060);
    }

    #[test]
    fn periodic_events_are_seed_deterministic() {
        let a = DisturbanceSchedule::periodic_events(
            SimDuration::from_hours(5),
            &mut Rng::seed_from(1),
        );
        let b = DisturbanceSchedule::periodic_events(
            SimDuration::from_hours(5),
            &mut Rng::seed_from(1),
        );
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn overlapping_events_sum() {
        let s = DisturbanceSchedule::new(vec![
            OpeningEvent {
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(60),
                kind: OpeningKind::Door,
            },
            OpeningEvent {
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(60),
                kind: OpeningKind::Window,
            },
        ]);
        let flows = s.exchange_at(SimTime::from_secs(30));
        assert!(flows.iter().all(|&f| f > 0.0));
    }
}
