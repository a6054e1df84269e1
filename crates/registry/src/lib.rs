//! `imdiff-registry` — the unified detector registry.
//!
//! One concrete type ([`AnyDetector`]) over ImDiffusion and every baseline
//! family, with a uniform lifecycle:
//!
//! ```text
//! fit  →  snapshot (IMDE envelope bytes)  →  persist  →  restore
//! ```
//!
//! The envelope ([`mod@envelope`]) is a CRC-checked record that tags the
//! family and wraps the family's *native* `snapshot_payload` bytes plus
//! its drift reference — so every family gains atomic persistence,
//! corruption detection and hot-reload for free. It is the only detector
//! checkpoint format.
//!
//! [`AnyDetector`] implements both [`imdiff_data::Detector`] (offline
//! evaluation) and [`imdiffusion::WindowScorer`] (the streaming monitor
//! and serving shards), which is what lets a served tenant run *any*
//! family without the serving stack knowing which.
//!
//! The [`mod@escalate`] module holds the cost-aware escalation policy: an
//! ordered ladder of rungs, a holdout-replay evaluator, and a
//! deterministic "cheapest rung within an F1 tolerance of the best"
//! decision rule (measured cost is recorded as evidence, never used to
//! decide — so mirrors reproduce decisions bit-exactly).

mod any;
pub mod envelope;
pub mod escalate;
mod kind;

pub use any::AnyDetector;
pub use envelope::{sniff_family, AnySpec, ENVELOPE_MAGIC, ENVELOPE_VERSION};
pub use escalate::{choose_rung, evaluate_ladder, LadderDecision, RungOutcome};
pub use kind::DetectorKind;
