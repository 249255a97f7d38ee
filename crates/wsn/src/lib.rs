//! 802.15.4-style wireless sensor network substrate.
//!
//! §IV of the paper builds a TelosB/802.15.4 network in which:
//!
//! - data suppliers **broadcast typed messages** (temperature, humidity,
//!   CO₂, …) rather than routing to a sink; consumers filter the channel
//!   for the types they need ([`message`], [`channel`]);
//! - **battery-powered devices duty-cycle** their transmissions with the
//!   adaptive scheme of §IV-B: the send period stretches to 32× the
//!   sampling period while the sensed signal is stable and snaps back the
//!   moment a sliding-window variance crosses a threshold λ
//!   ([`adaptive`]);
//! - λ itself is learned online by clustering historical variances with a
//!   **constant-memory histogram approximation** (Algorithm 1,
//!   [`histogram`]), traded off against an exact clustering oracle;
//! - **AC-powered devices stagger** their periodic transmissions to
//!   alleviate contention ([`ac_schedule`]);
//! - battery lifetime follows from a measured-power energy model
//!   (0.3 mW sampling, 54 mW transmitting — [`energy`]), and the
//!   MSP430-class cost of the clustering is modeled in [`platform`];
//! - the paper's stated future work — multi-hop, type-based multicast for
//!   building-scale deployments — is implemented in [`multihop`].
//!
//! # Example
//!
//! ```
//! use bz_simcore::{Rng, SimTime};
//! use bz_wsn::channel::{Network, NetworkConfig};
//! use bz_wsn::message::{DataType, Message, NodeId};
//!
//! let mut network = Network::new(NetworkConfig::telosb(), Rng::seed_from(7));
//! let msg = Message::new(NodeId::new(3), DataType::Temperature, 25.0, SimTime::ZERO);
//! network.send(SimTime::ZERO, msg);
//! let delivered = network.advance(SimTime::from_millis(50));
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].message.data_type(), DataType::Temperature);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac_schedule;
pub mod adaptive;
pub mod channel;
pub mod energy;
pub mod faults;
pub mod histogram;
pub mod message;
pub mod multihop;
pub mod platform;
pub mod retry;
pub mod sniffer;
