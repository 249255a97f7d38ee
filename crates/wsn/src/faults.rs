//! Network-layer fault injection: dead motes and degraded links.
//!
//! The paper's §V deployment lessons include motes that die outright,
//! batteries that run flat mid-trial, and individual radios whose link
//! quality collapses (antenna knocked, mote moved behind a cabinet). This
//! module scripts those failures deterministically, mirroring
//! `bz_thermal::faults` for actuators and `bz_thermal::sensors` for
//! sensing elements.

use bz_simcore::SimTime;

use crate::message::NodeId;

/// A network-layer malfunction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WsnFault {
    /// The mote stops entirely: no sampling, no transmissions.
    NodeDead {
        /// Which mote.
        node: NodeId,
    },
    /// The battery hits its cutoff voltage: electrically the same silence
    /// as [`WsnFault::NodeDead`], but `repaired_at` models a battery swap.
    BatteryExhausted {
        /// Which mote.
        node: NodeId,
    },
    /// Persistent elevated loss on this mote's link (on top of the
    /// channel's residual fading).
    LinkLoss {
        /// Which mote.
        node: NodeId,
        /// Per-frame loss probability in `[0, 1]`.
        loss: f64,
    },
}

impl WsnFault {
    /// Stable name for metric keys (`fault.<kind>.active`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::NodeDead { .. } => "node_dead",
            Self::BatteryExhausted { .. } => "battery_exhausted",
            Self::LinkLoss { .. } => "link_loss",
        }
    }
}

/// One scheduled network fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsnFaultEvent {
    /// When the fault appears.
    pub at: SimTime,
    /// When it is repaired (`None` = never).
    pub repaired_at: Option<SimTime>,
    /// What breaks.
    pub fault: WsnFault,
}

impl WsnFaultEvent {
    /// True if the fault is active at `now`.
    #[must_use]
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.at && self.repaired_at.is_none_or(|r| now < r)
    }
}

/// A deterministic network-fault schedule.
///
/// All queries are order-independent — node death is an OR over active
/// events, link loss a max — so permuting the event list never changes
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct WsnFaultSchedule {
    events: Vec<WsnFaultEvent>,
}

impl WsnFaultSchedule {
    /// Builds a schedule from events.
    #[must_use]
    pub fn new(events: Vec<WsnFaultEvent>) -> Self {
        Self { events }
    }

    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The scheduled events.
    #[must_use]
    pub fn events(&self) -> &[WsnFaultEvent] {
        &self.events
    }

    /// True if `node` is silent (dead or battery-exhausted) at `now`.
    #[must_use]
    pub fn node_dead(&self, node: NodeId, now: SimTime) -> bool {
        self.events.iter().any(|e| {
            e.is_active(now)
                && matches!(
                    e.fault,
                    WsnFault::NodeDead { node: n } | WsnFault::BatteryExhausted { node: n }
                        if n == node
                )
        })
    }

    /// Extra per-frame loss probability for `node`'s link at `now` (the
    /// max over active elevations; 0.0 when healthy).
    #[must_use]
    pub fn link_loss(&self, node: NodeId, now: SimTime) -> f64 {
        self.events
            .iter()
            .filter(|e| e.is_active(now))
            .filter_map(|e| match e.fault {
                WsnFault::LinkLoss { node: n, loss } if n == node => Some(loss),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_and_exhausted_nodes_are_silent_within_their_windows() {
        let schedule = WsnFaultSchedule::new(vec![
            WsnFaultEvent {
                at: SimTime::from_mins(10),
                repaired_at: None,
                fault: WsnFault::NodeDead {
                    node: NodeId::new(7),
                },
            },
            WsnFaultEvent {
                at: SimTime::from_mins(5),
                repaired_at: Some(SimTime::from_mins(15)),
                fault: WsnFault::BatteryExhausted {
                    node: NodeId::new(8),
                },
            },
        ]);
        assert!(!schedule.node_dead(NodeId::new(7), SimTime::from_mins(9)));
        assert!(schedule.node_dead(NodeId::new(7), SimTime::from_mins(10)));
        assert!(schedule.node_dead(NodeId::new(8), SimTime::from_mins(14)));
        // Battery swap brings node 8 back.
        assert!(!schedule.node_dead(NodeId::new(8), SimTime::from_mins(15)));
        assert!(!schedule.node_dead(NodeId::new(9), SimTime::from_mins(12)));
    }

    #[test]
    fn link_loss_takes_the_max_of_overlapping_elevations() {
        let mk = |loss: f64| WsnFaultEvent {
            at: SimTime::ZERO,
            repaired_at: None,
            fault: WsnFault::LinkLoss {
                node: NodeId::new(3),
                loss,
            },
        };
        let forward = WsnFaultSchedule::new(vec![mk(0.2), mk(0.6)]);
        let reverse = WsnFaultSchedule::new(vec![mk(0.6), mk(0.2)]);
        let now = SimTime::from_secs(1);
        assert_eq!(forward.link_loss(NodeId::new(3), now), 0.6);
        assert_eq!(reverse.link_loss(NodeId::new(3), now), 0.6);
        assert_eq!(forward.link_loss(NodeId::new(4), now), 0.0);
    }
}
