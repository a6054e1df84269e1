//! `imdiff-serve` — a zero-external-dependency serving layer for fitted
//! ImDiffusion detectors.
//!
//! The crate turns the offline pipeline into an online, multi-tenant
//! anomaly-detection service built entirely on `std::net` and the
//! workspace's own threading ([`imdiff_nn::pool`]) and telemetry
//! ([`imdiff_nn::obs`]):
//!
//! * **[`wire`]** — a versioned, CRC-framed binary protocol (payloads
//!   use the checkpoint files' byte codec): score requests carry raw
//!   `f32` rows with NaN-declared missing cells; responses carry typed
//!   verdicts, health reports, observability snapshots or typed errors.
//! * **[`server`]** — the [`server::Server`]: a tenant registry mapping
//!   stream ids to [`imdiffusion::StreamingMonitor`]s loaded from IMDE
//!   detector envelopes, shard worker threads that **micro-batch** concurrent
//!   requests per tenant into single ensemble calls (bit-identical to
//!   sequential scoring), admission control with explicit backpressure
//!   (overload refusals, queue deadlines, load-shedding to the degraded
//!   path), and a checkpoint **watcher** that hot-swaps newly written
//!   weights between batches while in-flight requests finish on the old
//!   generation.
//! * **[`client`]** — a blocking [`client::ServeClient`] with pipelining
//!   support, plus the fault-tolerant [`client::ResilientClient`]
//!   (sequence ids, bounded backoff with seeded jitter,
//!   reconnect-and-replay of the unanswered tail).
//! * **[`router`] / [`supervisor`]** — the replicated tier: a
//!   [`supervisor::Replicated`] handle spawns N replica servers, places
//!   tenants by consistent hashing, fronts them with a forwarding router,
//!   and heals replica death by fence-then-adopt failover from each
//!   tenant's IMSM sidecar.
//! * **[`chaos`]** — a deterministic fault-injection harness: a seeded
//!   plan of kills, partitions, duplicates, truncations and sidecar
//!   corruption driven through the real wire protocol, asserting typed
//!   errors (never hangs) and bit-identical post-failover verdicts.
//!
//! Both listeners — the server's and the router's — run the same
//! private connection event loop (`mux::serve`): one thread multiplexing
//! the listener and every connection over `poll(2)`, with frame
//! reassembly, slot-ordered replies, write backpressure and the idle /
//! frame-progress deadlines. Each listener plugs in as a small `Tier`
//! that decides what an accepted stream and a complete frame mean.
//!
//! See DESIGN.md §"Serving layer" for the wire format tables and the
//! batching / backpressure state machine, and §"Failure model" for the
//! replication and failover contract.

pub mod chaos;
pub mod client;
mod mux;
pub mod router;
pub mod server;
pub mod supervisor;
pub mod wire;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosReport};
pub use client::{
    Backoff, ClientError, ReloadOutcome, ResilientClient, RetryPolicy, Scored, ServeClient,
};
pub use router::{ReplicationCfg, Ring, RouterConfig};
pub use server::{
    EscalationSpec, HoldoutSpec, RungSpec, ServeConfig, ServeError, Server, TenantSpec,
};
pub use supervisor::Replicated;
pub use wire::{
    ErrorCode, PromotionVerdict, Request, Response, TenantHealth, WireError,
    WireHealthState, WireVerdict,
};
