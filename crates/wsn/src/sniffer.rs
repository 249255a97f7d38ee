//! The sniffer: packet-level capture for offline analysis.
//!
//! §V: "We install TelosB based sniffer nodes to collect all network
//! packets and log all control data with time stamps, based on which we
//! conduct full analysis on the system performance." This module is that
//! instrument: it records every delivered frame with its timestamp,
//! source, type, and MAC delay, and answers the aggregate questions the
//! paper's analysis asks (per-type traffic shares, per-stream
//! inter-arrival statistics).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};

use bz_simcore::{SimDuration, SimTime};

use crate::channel::Delivery;
use crate::message::{DataType, NodeId};

/// One captured frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Delivery completion time.
    pub at: SimTime,
    /// Emitting node.
    pub source: NodeId,
    /// Message type.
    pub data_type: DataType,
    /// Logical channel within the type.
    pub channel: u16,
    /// Carried value.
    pub value: f64,
    /// MAC delay from send request to delivery.
    pub delay: SimDuration,
}

/// Summary of one `(source, type, channel)` stream's capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Packets captured.
    pub packets: usize,
    /// Mean inter-arrival time, s (`None` with fewer than two packets).
    pub mean_interarrival_s: Option<f64>,
    /// Longest gap between consecutive packets, s.
    pub max_gap_s: Option<f64>,
}

/// A promiscuous capture of everything the broadcast bus delivered.
#[derive(Debug, Clone, Default)]
pub struct Sniffer {
    log: Vec<PacketRecord>,
}

impl Sniffer {
    /// Creates an empty capture.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivery from the channel.
    pub fn capture(&mut self, delivery: &Delivery) {
        self.log.push(PacketRecord {
            at: delivery.at,
            source: delivery.message.source(),
            data_type: delivery.message.data_type(),
            channel: delivery.message.channel(),
            value: delivery.message.value(),
            delay: delivery.delay,
        });
    }

    /// Number of captured packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Packets captured per message type.
    #[must_use]
    pub fn traffic_by_type(&self) -> HashMap<DataType, usize> {
        let mut counts = HashMap::new();
        for record in &self.log {
            *counts.entry(record.data_type).or_insert(0) += 1;
        }
        counts
    }

    /// Per-stream summaries keyed by `(source, type, channel)`.
    #[must_use]
    pub fn stream_summaries(&self) -> HashMap<(NodeId, DataType, u16), StreamSummary> {
        let mut arrivals: HashMap<(NodeId, DataType, u16), Vec<SimTime>> = HashMap::new();
        for record in &self.log {
            arrivals
                .entry((record.source, record.data_type, record.channel))
                .or_default()
                .push(record.at);
        }
        arrivals
            .into_iter()
            .map(|(key, times)| {
                let gaps: Vec<f64> = times
                    .windows(2)
                    .map(|w| w[1].since(w[0]).as_secs_f64())
                    .collect();
                let summary = StreamSummary {
                    packets: times.len(),
                    mean_interarrival_s: (!gaps.is_empty())
                        .then(|| gaps.iter().sum::<f64>() / gaps.len() as f64),
                    max_gap_s: gaps.iter().copied().fold(None, |acc: Option<f64>, g| {
                        Some(acc.map_or(g, |a| a.max(g)))
                    }),
                };
                (key, summary)
            })
            .collect()
    }

    /// Mean MAC delay over the capture, ms.
    #[must_use]
    pub fn mean_delay_ms(&self) -> Option<f64> {
        if self.log.is_empty() {
            return None;
        }
        Some(
            self.log
                .iter()
                .map(|r| r.delay.as_secs_f64() * 1_000.0)
                .sum::<f64>()
                / self.log.len() as f64,
        )
    }

    /// Writes the capture as CSV
    /// (`time_s,source,type,channel,value,delay_ms` rows).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        let mut buffer = String::from("time_s,source,type,channel,value,delay_ms\n");
        for r in &self.log {
            let _ = writeln!(
                buffer,
                "{:.3},{},{},{},{:.6},{:.1}",
                r.at.as_secs_f64(),
                r.source.get(),
                r.data_type,
                r.channel,
                r.value,
                r.delay.as_secs_f64() * 1_000.0,
            );
        }
        out.write_all(buffer.as_bytes())
    }
}

// --- Checkpoint support --------------------------------------------------

bz_state::persist_struct!(PacketRecord {
    at,
    source,
    data_type,
    channel,
    value,
    delay,
});
bz_state::persist_struct!(Sniffer { log });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Network, NetworkConfig};
    use crate::message::Message;
    use bz_simcore::Rng;

    fn captured_traffic() -> Sniffer {
        let config = NetworkConfig {
            residual_loss: 0.0,
            ..NetworkConfig::telosb()
        };
        let mut network = Network::new(config, Rng::seed_from(5));
        let mut sniffer = Sniffer::new();
        for i in 0..20u64 {
            let at = SimTime::from_secs(i * 2);
            network.send(
                at,
                Message::on_channel(NodeId::new(1), DataType::Temperature, 0, 25.0, at),
            );
            if i % 4 == 0 {
                network.send(
                    at,
                    Message::on_channel(NodeId::new(2), DataType::Co2, 3, 520.0, at),
                );
            }
        }
        for delivery in network.advance(SimTime::from_secs(60)) {
            sniffer.capture(&delivery);
        }
        sniffer
    }

    #[test]
    fn captures_everything_delivered() {
        let sniffer = captured_traffic();
        assert_eq!(sniffer.len(), 25);
        assert!(!sniffer.is_empty());
    }

    #[test]
    fn traffic_by_type_counts() {
        let sniffer = captured_traffic();
        let traffic = sniffer.traffic_by_type();
        assert_eq!(traffic[&DataType::Temperature], 20);
        assert_eq!(traffic[&DataType::Co2], 5);
    }

    #[test]
    fn stream_summaries_compute_interarrivals() {
        let sniffer = captured_traffic();
        let summaries = sniffer.stream_summaries();
        let temp = summaries[&(NodeId::new(1), DataType::Temperature, 0)];
        assert_eq!(temp.packets, 20);
        // Sent every 2 s; MAC delay jitter is milliseconds.
        assert!((temp.mean_interarrival_s.unwrap() - 2.0).abs() < 0.1);
        assert!(temp.max_gap_s.unwrap() < 2.5);
        let co2 = summaries[&(NodeId::new(2), DataType::Co2, 3)];
        assert_eq!(co2.packets, 5);
        assert!((co2.mean_interarrival_s.unwrap() - 8.0).abs() < 0.2);
    }

    #[test]
    fn empty_capture_behaves() {
        let sniffer = Sniffer::new();
        assert!(sniffer.is_empty());
        assert_eq!(sniffer.mean_delay_ms(), None);
        assert!(sniffer.traffic_by_type().is_empty());
        assert!(sniffer.stream_summaries().is_empty());
    }

    #[test]
    fn csv_has_one_row_per_packet() {
        let sniffer = captured_traffic();
        let mut out = Vec::new();
        sniffer.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 26); // header + 25 rows
        assert!(text.starts_with("time_s,source,type,channel,value,delay_ms"));
        assert!(text.contains("temperature"));
    }

    #[test]
    fn delay_statistics_are_positive() {
        let sniffer = captured_traffic();
        let delay = sniffer.mean_delay_ms().unwrap();
        assert!(delay >= 1.0, "MAC delay should be at least the airtime");
        assert!(delay < 50.0);
    }
}
