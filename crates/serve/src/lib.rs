//! Compression as a service: a long-running daemon that accepts
//! concurrent `compress` / `decompress` / `info` requests over Unix or
//! TCP sockets, schedules them onto a sharded worker pool with bounded
//! admission queues, and prices every request's energy through the
//! fitted power models — ROADMAP item 2, turning the one-shot CLI's
//! per-checkpoint energy/latency trade-off into a live per-request
//! scheduling decision.
//!
//! The wire surface is the `LCRQ`/`LCRS` frame pair specified in
//! `PROTOCOL.md` at the repo root and implemented in [`protocol`]: the
//! LCW1 envelope's varint + TLV building blocks, the same hard ceilings
//! and typed-error stance, with compressed payloads being ordinary
//! self-describing containers (LCW1 or legacy). [`server`] hosts the
//! daemon, [`client`] the blocking client API, and [`driver`] the
//! mixed-workload load generator behind `serve --drive` and the CI
//! integration leg.
//!
//! # Examples
//!
//! ```
//! use lcpio_serve::{drive, Endpoint, ServeConfig, Server, WorkloadConfig};
//!
//! let server = Server::bind(
//!     &Endpoint::Tcp("127.0.0.1:0".to_string()),
//!     ServeConfig { workers: 2, ..ServeConfig::default() },
//! ).unwrap();
//!
//! let report = drive(
//!     server.endpoint(),
//!     &WorkloadConfig { requests: 12, clients: 2, chunk_elements: 2048, ..Default::default() },
//! ).unwrap();
//! assert_eq!(report.ok, 12);
//! assert!(report.req_per_s > 0.0);
//!
//! server.shutdown();
//! let stats = server.wait();
//! assert_eq!(stats.requests, 12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod driver;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, CompressOptions};
pub use driver::{drive, WorkloadConfig, WorkloadReport};
pub use protocol::{Op, ProtoError, Request, Response};
pub use server::{plan_and_compress, Endpoint, FaultPlan, ServeConfig, Server, StatsSnapshot};
