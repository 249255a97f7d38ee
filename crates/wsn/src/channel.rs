//! The shared 802.15.4 broadcast channel with CSMA/CA contention.
//!
//! All BubbleZERO devices are within single-hop range ("TelosB motes can
//! reliably communicate up to 50 m in the indoor environment"), so the
//! channel is a single collision domain. A transmission occupies the
//! medium for its frame airtime at 250 kbps; senders perform carrier
//! sensing with binary-exponential backoff; overlapping transmissions
//! corrupt each other (no capture effect); residual losses model fading
//! and interference.

use bz_simcore::{Rng, SimDuration, SimTime};

use crate::faults::WsnFaultSchedule;
use crate::message::Message;

/// PHY bit rate, bits/s (802.15.4: 250 kbps).
const BITRATE_BPS: u64 = 250_000;

/// PHY + MAC framing overhead added to every payload, bytes (preamble,
/// SFD, length, MAC header, FCS).
const OVERHEAD_BYTES: usize = 23;

/// One backoff unit, ms (the 802.15.4 unit period quantized to the
/// simulation clock).
const BACKOFF_UNIT_MS: u64 = 1;

/// Channel and MAC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Probability that an uncollided frame is still lost (fading, ...).
    pub residual_loss: f64,
    /// Maximum CSMA backoff attempts before the frame is dropped.
    pub max_backoffs: u32,
}

impl NetworkConfig {
    /// TelosB / CC2420-style defaults.
    #[must_use]
    pub fn telosb() -> Self {
        Self {
            residual_loss: 0.02,
            max_backoffs: 4,
        }
    }
}

/// Airtime of a frame carrying `payload_bytes`.
fn airtime(payload_bytes: usize) -> SimDuration {
    let bits = ((payload_bytes + OVERHEAD_BYTES) * 8) as u64;
    // Ceiling division so sub-millisecond frames still occupy a tick.
    let micros = bits * 1_000_000 / BITRATE_BPS;
    SimDuration::from_millis(micros.div_ceil(1_000).max(1))
}

/// Why a frame failed to arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxFailure {
    /// Another transmission overlapped and corrupted this frame.
    Collision,
    /// The CSMA backoff budget was exhausted against a busy channel.
    ChannelBusy,
    /// Random residual loss.
    Fading,
}

/// A frame delivered to the broadcast bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the frame finished arriving.
    pub at: SimTime,
    /// The carried message.
    pub message: Message,
    /// MAC delay: time from the send request to complete delivery.
    pub delay: SimDuration,
}

/// Aggregate channel statistics (the paper's sniffer-node view).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChannelStats {
    /// Frames offered by senders.
    pub offered: u64,
    /// Frames delivered to the bus.
    pub delivered: u64,
    /// Frames lost to collisions.
    pub collided: u64,
    /// Frames dropped after exhausting CSMA backoffs.
    pub busy_drops: u64,
    /// Frames lost to residual fading.
    pub faded: u64,
    /// Sum of delivery delays, ms (for the mean delay).
    pub total_delay_ms: u64,
    /// Maximum delivery delay, ms.
    pub max_delay_ms: u64,
    /// Number of CSMA backoff events performed.
    pub backoffs: u64,
}

impl ChannelStats {
    /// Delivery ratio over everything offered.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Mean delivery delay, ms.
    #[must_use]
    pub fn mean_delay_ms(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_delay_ms as f64 / self.delivered as f64
        }
    }
}

/// An in-flight or queued frame.
#[derive(Debug, Clone, Copy)]
struct Flight {
    start: SimTime,
    end: SimTime,
    requested: SimTime,
    message: Message,
    corrupted: bool,
    faded: bool,
}

/// Delays below this many milliseconds are counted in
/// [`PendingDelays::per_ms`]; the channel's delays stay under 40 ms.
const TALLIED_DELAY_MS: usize = 48;

/// Delivery delays not yet in the `wsn.delivery_delay_ms` histogram,
/// counted per whole millisecond, so a delivery costs an increment and
/// [`Network::publish_counters`] adds them under one registry lock. The
/// first delay after each publish is recorded at once, so the histogram's
/// key still gets its id at the first delivery; so is a delay past the
/// tally. Whole milliseconds keep the histogram's sum exact in any order.
/// A network dropped with delays pending adds them then, so one that no
/// system publishes still records every delivered frame's delay.
#[derive(Debug)]
struct PendingDelays {
    /// Deliveries per delay in ms, since the last publish.
    per_ms: [u16; TALLIED_DELAY_MS],
    /// Whether a delay was recorded since the last publish.
    any: bool,
}

impl PendingDelays {
    const KEY: &'static str = "wsn.delivery_delay_ms";

    fn new() -> Self {
        Self {
            per_ms: [0; TALLIED_DELAY_MS],
            any: false,
        }
    }

    fn record(&mut self, obs: &bz_obs::Handle, delay_ms: u64) {
        if !obs.is_enabled() {
            return;
        }
        if self.any {
            let tally = usize::try_from(delay_ms)
                .ok()
                .and_then(|ms| self.per_ms.get_mut(ms));
            if let Some(count) = tally.filter(|count| **count < u16::MAX) {
                *count += 1;
                return;
            }
        }
        self.any = true;
        obs.observe(Self::KEY, delay_ms as f64);
    }

    fn publish(&mut self, obs: &bz_obs::Handle) {
        if !std::mem::take(&mut self.any) {
            return;
        }
        let counted = self.per_ms.iter().enumerate().filter(|(_, &n)| n > 0);
        obs.observe_counted(Self::KEY, counted.map(|(ms, &n)| (ms as f64, u64::from(n))));
        self.per_ms = [0; TALLIED_DELAY_MS];
    }
}

impl Clone for PendingDelays {
    /// Nothing pending: the delays counted so far stay with the original,
    /// which records them, so a clone never records them twice.
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// The broadcast network.
///
/// Use [`Network::send`] to offer frames and [`Network::advance`] to move
/// simulated time forward and collect the frames that completed.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    rng: Rng,
    in_flight: Vec<Flight>,
    stats: ChannelStats,
    /// `stats` as of the last [`Network::publish_counters`].
    published: ChannelStats,
    failures: Vec<(Message, TxFailure)>,
    faults: WsnFaultSchedule,
    obs: bz_obs::Handle,
    /// Delivery delays since the last [`Network::publish_counters`].
    delays: PendingDelays,
    /// Reused scratch for the frames completing in one `advance` call,
    /// so steady-state advancing allocates nothing.
    done_buf: Vec<Flight>,
}

impl Network {
    /// Creates a network with its own random stream, recording packet
    /// counters against the global `bz_obs` registry.
    #[must_use]
    pub fn new(config: NetworkConfig, rng: Rng) -> Self {
        Self {
            config,
            rng,
            in_flight: Vec::new(),
            stats: ChannelStats::default(),
            published: ChannelStats::default(),
            failures: Vec::new(),
            faults: WsnFaultSchedule::none(),
            obs: bz_obs::Handle::global(),
            delays: PendingDelays::new(),
            done_buf: Vec::new(),
        }
    }

    /// Redirects this network's metrics to `obs` (per-run isolation).
    #[must_use]
    pub fn with_obs(mut self, obs: bz_obs::Handle) -> Self {
        self.obs = obs;
        self
    }

    /// Installs a network fault schedule (dead motes, degraded links).
    #[must_use]
    pub fn with_faults(mut self, faults: WsnFaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault schedule.
    #[must_use]
    pub fn faults(&self) -> &WsnFaultSchedule {
        &self.faults
    }

    /// True while any frame occupies the medium at `at`.
    #[must_use]
    pub fn busy_at(&self, at: SimTime) -> bool {
        self.in_flight.iter().any(|f| f.start <= at && at < f.end)
    }

    /// Offers a frame to the channel at `now` using CSMA/CA. Returns
    /// `true` if a transmission was started (its fate — collision,
    /// fading — resolves when [`Network::advance`] passes its end time),
    /// `false` if the backoff budget was exhausted.
    pub fn send(&mut self, now: SimTime, message: Message) -> bool {
        // A dead mote has no radio: the frame vanishes before it touches
        // the medium. No failure report either — nothing observes its own
        // death, which is exactly why the controller side needs a
        // staleness supervisor.
        if self.faults.node_dead(message.source(), now) {
            self.obs.counter_inc("wsn.packets.dropped_dead_node");
            return false;
        }
        self.stats.offered += 1;
        let airtime = airtime(message.payload_bytes());

        // CSMA: find a start instant at which the channel is clear, with
        // binary-exponential backoff on each busy assessment.
        let mut candidate = now;
        let mut attempt: u32 = 0;
        loop {
            if self.busy_at(candidate) {
                if attempt >= self.config.max_backoffs {
                    self.stats.busy_drops += 1;
                    self.failures.push((message, TxFailure::ChannelBusy));
                    return false;
                }
                // Wait for the medium, then back off a random number of
                // unit periods in [1, 2^(attempt+2)].
                let horizon = self
                    .in_flight
                    .iter()
                    .filter(|f| f.start <= candidate && candidate < f.end)
                    .map(|f| f.end)
                    .max()
                    .unwrap_or(candidate);
                let window = 1u64 << (attempt + 2).min(6);
                let slots = 1 + self.rng.below(window);
                candidate = horizon + SimDuration::from_millis(slots * BACKOFF_UNIT_MS);
                attempt += 1;
                self.stats.backoffs += 1;
            } else {
                break;
            }
        }

        let end = candidate + airtime;
        let mut corrupted = false;
        // Any overlap with a concurrently started frame corrupts both —
        // carrier sensing cannot see a frame that starts in the same slot.
        for other in &mut self.in_flight {
            let overlap = other.start < end && candidate < other.end;
            if overlap {
                other.corrupted = true;
                corrupted = true;
            }
        }
        let mut faded = self.rng.chance(self.config.residual_loss);
        // Per-link loss elevation (antenna knocked, mote moved): an extra
        // independent loss draw on top of the channel-wide residual. The
        // elevation is the max over active fault windows, so event order
        // never matters.
        let extra_loss = self.faults.link_loss(message.source(), now);
        if !faded && extra_loss > 0.0 {
            faded = self.rng.chance(extra_loss);
        }
        self.in_flight.push(Flight {
            start: candidate,
            end,
            requested: now,
            message,
            corrupted,
            faded,
        });
        true
    }

    /// Advances channel time to `now`, resolving every frame whose
    /// airtime has completed. Returns the successful deliveries in
    /// completion order.
    pub fn advance(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.advance_into(now, &mut deliveries);
        deliveries
    }

    /// Like [`Network::advance`], but appends the deliveries to `out`
    /// (which the caller clears between ticks) instead of allocating a
    /// fresh vector — the form the per-second simulation loop uses to
    /// stay allocation-free.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Delivery>) {
        let mut done = std::mem::take(&mut self.done_buf);
        done.clear();
        self.in_flight.retain(|f| {
            if f.end <= now {
                done.push(*f);
                false
            } else {
                true
            }
        });
        done.sort_by_key(|f| f.end);

        for &f in &done {
            if f.corrupted {
                self.stats.collided += 1;
                self.failures.push((f.message, TxFailure::Collision));
            } else if f.faded {
                self.stats.faded += 1;
                self.failures.push((f.message, TxFailure::Fading));
            } else {
                let delay = f.end.since(f.requested);
                self.stats.delivered += 1;
                self.delays.record(&self.obs, delay.as_millis());
                self.stats.total_delay_ms += delay.as_millis();
                self.stats.max_delay_ms = self.stats.max_delay_ms.max(delay.as_millis());
                out.push(Delivery {
                    at: f.end,
                    message: f.message,
                    delay,
                });
            }
        }
        self.done_buf = done;
    }

    /// Sniffer statistics so far.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Adds the growth of the packet statistics since the last publish to
    /// the `wsn.packets.*` and `wsn.backoffs` counters, and the delivery
    /// delays counted since to the `wsn.delivery_delay_ms` histogram. The
    /// statistics are the counts, so sending and resolving a frame never
    /// touches the registry. A count that has not grown is not published,
    /// so a counter still appears only after its first frame.
    pub fn publish_counters(&mut self) {
        self.delays.publish(&self.obs);
        let (now, was) = (&self.stats, &self.published);
        for (key, now, was) in [
            ("wsn.packets.sent", now.offered, was.offered),
            ("wsn.packets.delivered", now.delivered, was.delivered),
            ("wsn.packets.collided", now.collided, was.collided),
            ("wsn.packets.dropped_busy", now.busy_drops, was.busy_drops),
            ("wsn.packets.dropped_fading", now.faded, was.faded),
            ("wsn.backoffs", now.backoffs, was.backoffs),
        ] {
            if now > was {
                self.obs.counter_add(key, now - was);
            }
        }
        self.published = self.stats;
    }

    /// Drains the per-frame failure reports accumulated since the last
    /// call. Senders use these to adapt their schedules (§IV: AC devices
    /// "adapt their transmission schedules to alleviate channel
    /// contentions").
    pub fn take_failures(&mut self) -> Vec<(Message, TxFailure)> {
        std::mem::take(&mut self.failures)
    }

    /// Serializes the dynamic channel state: the random stream, frames on
    /// the air, statistics, and unclaimed failure reports. Configuration,
    /// the fault schedule, and the obs handle are rebuilt on restore.
    pub fn save_state(&self, w: &mut bz_state::Writer) {
        use bz_state::Persist;
        self.rng.save(w);
        self.in_flight.save(w);
        self.stats.save(w);
        self.failures.save(w);
    }

    /// Restores the dynamic state saved by [`Self::save_state`]. The
    /// restored statistics become the publish baseline, so
    /// [`Network::publish_counters`] adds only what happens after the
    /// restore.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the bytes do not parse.
    pub fn load_state(&mut self, r: &mut bz_state::Reader<'_>) -> Result<(), bz_state::StateError> {
        use bz_state::Persist;
        self.rng = Persist::load(r)?;
        self.in_flight = Persist::load(r)?;
        self.stats = Persist::load(r)?;
        self.published = self.stats;
        self.failures = Persist::load(r)?;
        self.delays = PendingDelays::new();
        self.done_buf.clear();
        Ok(())
    }
}

impl Drop for Network {
    /// Records the delays counted since the last publish, so a network
    /// no system publishes, such as a standalone channel experiment's,
    /// still records every delivered frame's delay. Its counters still
    /// wait for [`Network::publish_counters`].
    fn drop(&mut self) {
        self.delays.publish(&self.obs);
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_unit_enum!(TxFailure {
    Collision,
    ChannelBusy,
    Fading,
});
bz_state::persist_struct!(ChannelStats {
    offered,
    delivered,
    collided,
    busy_drops,
    faded,
    total_delay_ms,
    max_delay_ms,
    backoffs,
});
bz_state::persist_struct!(Flight {
    start,
    end,
    requested,
    message,
    corrupted,
    faded,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DataType, NodeId};

    fn lossless() -> NetworkConfig {
        NetworkConfig {
            residual_loss: 0.0,
            ..NetworkConfig::telosb()
        }
    }

    fn msg(node: u16, at: SimTime) -> Message {
        Message::new(NodeId::new(node), DataType::Temperature, 25.0, at)
    }

    #[test]
    fn airtime_is_plausible() {
        // 10-byte payload + 23 overhead = 33 bytes = 264 bits ≈ 1.06 ms.
        let t = airtime(10);
        assert_eq!(t.as_millis(), 2); // ceil to the ms clock
                                      // A max-length frame (~127 bytes) is ~4 ms.
        let t_max = airtime(104);
        assert!(t_max.as_millis() >= 4 && t_max.as_millis() <= 5);
    }

    #[test]
    fn single_frame_is_delivered() {
        let mut net = Network::new(lossless(), Rng::seed_from(1));
        assert!(net.send(SimTime::ZERO, msg(1, SimTime::ZERO)));
        let out = net.advance(SimTime::from_millis(100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message.source(), NodeId::new(1));
        assert!(out[0].delay.as_millis() >= 1);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().collided, 0);
    }

    #[test]
    fn simultaneous_sends_collide_or_backoff() {
        // Two frames offered in the same millisecond: the second sender's
        // carrier sense sees the first (already "on air"), so it backs
        // off and both should eventually deliver.
        let mut net = Network::new(lossless(), Rng::seed_from(2));
        net.send(SimTime::ZERO, msg(1, SimTime::ZERO));
        net.send(SimTime::ZERO, msg(2, SimTime::ZERO));
        let out = net.advance(SimTime::from_millis(200));
        assert_eq!(out.len(), 2, "CSMA should serialize both");
        assert!(net.stats().backoffs >= 1);
    }

    #[test]
    fn heavy_synchronized_load_causes_losses() {
        let mut net = Network::new(lossless(), Rng::seed_from(3));
        // 40 devices all transmitting in the same instant, repeatedly.
        for round in 0..50u64 {
            let t = SimTime::from_millis(round * 100);
            for node in 0..40u16 {
                net.send(t, msg(node, t));
            }
        }
        let _ = net.advance(SimTime::from_secs(60));
        let s = net.stats();
        assert_eq!(s.offered, 2_000);
        assert!(
            s.collided + s.busy_drops > 0,
            "synchronized bursts must contend: {s:?}"
        );
        assert!(s.delivery_ratio() < 1.0);
    }

    #[test]
    fn staggered_load_delivers_everything() {
        let mut net = Network::new(lossless(), Rng::seed_from(4));
        // Same 40 devices, but staggered 10 ms apart — far beyond airtime.
        for round in 0..10u64 {
            for node in 0..40u64 {
                let t = SimTime::from_millis(round * 1_000 + node * 10);
                net.send(t, msg(node as u16, t));
            }
        }
        let out = net.advance(SimTime::from_secs(60));
        assert_eq!(out.len(), 400);
        assert!((net.stats().delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(net.stats().collided, 0);
    }

    #[test]
    fn residual_loss_takes_its_share() {
        let cfg = NetworkConfig {
            residual_loss: 0.5,
            ..NetworkConfig::telosb()
        };
        let mut net = Network::new(cfg, Rng::seed_from(5));
        for i in 0..1_000u64 {
            let t = SimTime::from_millis(i * 20);
            net.send(t, msg(1, t));
        }
        let out = net.advance(SimTime::from_secs(60));
        let ratio = out.len() as f64 / 1_000.0;
        assert!((ratio - 0.5).abs() < 0.06, "ratio {ratio}");
        assert_eq!(net.stats().faded + net.stats().delivered, 1_000);
    }

    #[test]
    fn busy_at_reflects_airtime() {
        let mut net = Network::new(lossless(), Rng::seed_from(6));
        net.send(SimTime::ZERO, msg(1, SimTime::ZERO));
        assert!(net.busy_at(SimTime::ZERO + SimDuration::from_millis(1)));
        assert!(!net.busy_at(SimTime::from_millis(50)));
    }

    #[test]
    fn a_network_records_every_delay_it_counted_by_the_time_it_is_dropped() {
        let obs = bz_obs::Handle::isolated();
        let mut net = Network::new(lossless(), Rng::seed_from(15)).with_obs(obs.clone());
        for node in 0..40u64 {
            let t = SimTime::from_millis(node * 3);
            net.send(t, msg(node as u16, t));
        }
        let out = net.advance(SimTime::from_secs(1));
        let total_ms: u64 = out.iter().map(|d| d.delay.as_millis()).sum();
        assert!(out.len() > 1);
        // A clone starts with nothing pending, so dropping it adds nothing.
        drop(net.clone());
        drop(net);
        let delays = &obs.snapshot().histograms["wsn.delivery_delay_ms"];
        assert_eq!(delays.count(), out.len() as u64);
        assert_eq!(delays.sum(), total_ms as f64);
    }

    #[test]
    fn advance_is_incremental() {
        let mut net = Network::new(lossless(), Rng::seed_from(7));
        net.send(SimTime::ZERO, msg(1, SimTime::ZERO));
        net.send(SimTime::from_millis(500), msg(2, SimTime::from_millis(500)));
        let first = net.advance(SimTime::from_millis(100));
        assert_eq!(first.len(), 1);
        let second = net.advance(SimTime::from_secs(1));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].message.source(), NodeId::new(2));
    }

    #[test]
    fn stats_delay_accounting() {
        let mut net = Network::new(lossless(), Rng::seed_from(8));
        net.send(SimTime::ZERO, msg(1, SimTime::ZERO));
        let _ = net.advance(SimTime::from_secs(1));
        assert!(net.stats().mean_delay_ms() >= 1.0);
        assert!(net.stats().max_delay_ms >= 1);
    }

    #[test]
    fn exhausted_backoff_budget_drops_the_frame() {
        let cfg = NetworkConfig {
            residual_loss: 0.0,
            max_backoffs: 0,
        };
        let mut net = Network::new(cfg, Rng::seed_from(9));
        assert!(net.send(SimTime::ZERO, msg(1, SimTime::ZERO)));
        // The second sender finds the medium busy and has no backoff
        // budget: the frame is dropped immediately.
        assert!(!net.send(SimTime::ZERO, msg(2, SimTime::ZERO)));
        let out = net.advance(SimTime::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(net.stats().busy_drops, 1);
        let failures = net.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1, TxFailure::ChannelBusy);
    }

    #[test]
    fn dead_node_frames_vanish_without_failure_reports() {
        use crate::faults::{WsnFault, WsnFaultEvent, WsnFaultSchedule};
        let faults = WsnFaultSchedule::new(vec![WsnFaultEvent {
            at: SimTime::from_secs(10),
            repaired_at: None,
            fault: WsnFault::NodeDead {
                node: NodeId::new(1),
            },
        }]);
        let mut net = Network::new(lossless(), Rng::seed_from(11)).with_faults(faults);
        // Before death: delivered normally.
        assert!(net.send(SimTime::ZERO, msg(1, SimTime::ZERO)));
        // After death: silently dropped, not even offered.
        assert!(!net.send(SimTime::from_secs(10), msg(1, SimTime::from_secs(10))));
        // Other nodes unaffected.
        assert!(net.send(SimTime::from_secs(10), msg(2, SimTime::from_secs(10))));
        let out = net.advance(SimTime::from_secs(20));
        assert_eq!(out.len(), 2);
        assert_eq!(net.stats().offered, 2);
        assert!(net.take_failures().is_empty(), "death is silent");
    }

    #[test]
    fn link_loss_elevation_hits_only_the_degraded_node() {
        use crate::faults::{WsnFault, WsnFaultEvent, WsnFaultSchedule};
        let faults = WsnFaultSchedule::new(vec![WsnFaultEvent {
            at: SimTime::ZERO,
            repaired_at: None,
            fault: WsnFault::LinkLoss {
                node: NodeId::new(1),
                loss: 0.8,
            },
        }]);
        let mut net = Network::new(lossless(), Rng::seed_from(12)).with_faults(faults);
        for i in 0..500u64 {
            let t = SimTime::from_millis(i * 40);
            net.send(t, msg(1, t));
            net.send(t + SimDuration::from_millis(20), msg(2, t));
        }
        let out = net.advance(SimTime::from_secs(60));
        let from_degraded = out
            .iter()
            .filter(|d| d.message.source() == NodeId::new(1))
            .count();
        let from_healthy = out
            .iter()
            .filter(|d| d.message.source() == NodeId::new(2))
            .count();
        let ratio = from_degraded as f64 / 500.0;
        assert!((ratio - 0.2).abs() < 0.06, "degraded ratio {ratio}");
        assert_eq!(from_healthy, 500, "healthy node sees no extra loss");
    }

    #[test]
    fn advance_into_matches_advance() {
        let run = |into: bool| {
            let mut net = Network::new(NetworkConfig::telosb(), Rng::seed_from(13));
            let mut all = Vec::new();
            for i in 0..200u64 {
                let t = SimTime::from_millis(i * 7);
                net.send(t, msg((i % 10) as u16, t));
                if i % 20 == 19 {
                    if into {
                        net.advance_into(t, &mut all);
                    } else {
                        all.extend(net.advance(t));
                    }
                }
            }
            if into {
                net.advance_into(SimTime::from_secs(10), &mut all);
            } else {
                all.extend(net.advance(SimTime::from_secs(10)));
            }
            (all, *net.stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed: u64| {
            let mut net = Network::new(NetworkConfig::telosb(), Rng::seed_from(seed));
            for i in 0..200u64 {
                let t = SimTime::from_millis(i * 7);
                net.send(t, msg((i % 10) as u16, t));
            }
            let out = net.advance(SimTime::from_secs(10));
            (out.len(), *net.stats())
        };
        assert_eq!(run(42), run(42));
    }
}
