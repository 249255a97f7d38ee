//! `bz-serve` — the multi-tenant control-plane service behind
//! `bzctl serve`.
//!
//! The workspace is offline (no tokio, no hyper), so the service is
//! built from the standard library alone: a hand-rolled HTTP/1.1 codec
//! ([`http`]), a sharded-lock tenant registry over the deterministic
//! simulation sessions ([`tenants`]), and a thread-pool TCP server with
//! graceful drain and final checkpoints ([`server`]). A small blocking
//! client ([`client`]) backs the load generator and the integration
//! tests.
//!
//! The contract that makes the service useful for the reproduction:
//! a tenant driven over the wire produces **byte-identical** JSONL
//! telemetry to the same scenario run offline with `bzctl trial` —
//! the wire is pacing, not physics.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod load;
pub mod server;
pub mod tenants;

pub use client::Client;
pub use server::{ServeConfig, Server, ShutdownReport};
pub use tenants::{build_tenant, Registry, Tenant};
