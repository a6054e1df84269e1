//! `imdiff-data` — time-series containers, masking, synthetic benchmark
//! generators and the shared [`Detector`] trait.
//!
//! This crate is the data layer of the ImDiffusion reproduction:
//!
//! * [`Mts`] — a dense multivariate time series `[L, K]` with per-channel
//!   normalization and windowing;
//! * [`mask`] — the grating and random masking strategies of §4.2;
//! * [`synthetic`] — generators standing in for the six public benchmarks
//!   (SMD, PSM, MSL, SMAP, SWaT, GCP) with a labelled anomaly taxonomy;
//! * [`production`] — the email-delivery latency stream simulator used by
//!   the Table 7 reproduction;
//! * [`replay`] — a deterministic client-side stream feeder that cuts a
//!   series into score-request chunks (gaps, NaN cells, jittered sizes)
//!   for driving the serving layer in tests and benches;
//! * [`scenario`] — continual-learning scenarios (gradual drift, abrupt
//!   regime change, variable-rate traffic) with ground truth, for the
//!   drift→retrain→promote loop tests;
//! * [`Detector`] — the interface every detector (ImDiffusion and all ten
//!   baselines) implements so the evaluation harness can drive them
//!   uniformly.

mod detector;
pub mod faults;
pub mod io;
pub mod mask;
mod mts;
pub mod production;
pub mod replay;
pub mod scenario;
pub mod synthetic;

pub use detector::{check_finite, Detection, Detector, DetectorError};
pub use mts::{coverage_starts, Mts, NormMethod, Normalizer};
