//! Deterministic simulation kernel for the BubbleZERO reproduction.
//!
//! Everything in this workspace — the building physics, the controllers, and
//! the wireless network — advances on the same discrete millisecond clock
//! defined here. The kernel is deliberately single-threaded and fully
//! deterministic: two runs with the same seed produce bit-identical traces,
//! which is what makes the paper's figures reproducible and the integration
//! tests meaningful.
//!
//! The pieces:
//!
//! - [`SimTime`] / [`SimDuration`] — the simulation clock (millisecond ticks).
//! - [`EventQueue`] — a deterministic time-ordered queue with FIFO
//!   tie-breaking for simultaneous events.
//! - [`Rng`] — a seedable xoshiro256** generator with the handful of
//!   distributions the simulators need. No OS entropy is ever consulted.
//! - [`TraceRecorder`] — named time series with CSV export, the backing
//!   store for every figure harness.
//! - [`stats`] — streaming mean/variance, the paper's sliding-window
//!   variance, CDFs and percentiles.
//!
//! # Example
//!
//! ```
//! use bz_simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(2), "sample");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(1), "boot");
//! let (t, event) = queue.pop().unwrap();
//! assert_eq!(event, "boot");
//! assert_eq!(t, SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
pub mod noise;
mod rng;
pub mod stats;
mod time;
mod trace;

pub use events::EventQueue;
pub use noise::NoiseKernel;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
pub use trace::{Sample, Series, TraceRecorder};
