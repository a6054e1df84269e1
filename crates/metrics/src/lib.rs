//! `imdiff-metrics` — evaluation metrics for MTS anomaly detection.
//!
//! Implements every metric reported in the paper's evaluation:
//!
//! * precision / recall / F1 with the **point-adjustment** protocol used by
//!   this literature (OmniAnomaly, TranAD, ImDiffusion) — [`point`];
//! * best-F1 threshold search over a score series, mirroring the grid
//!   search the paper applies to baselines — [`threshold`];
//! * **R-AUC-PR**, the range-aware, threshold-independent area under the
//!   precision-recall curve with buffered labels (Paparrizos et al.,
//!   VLDB 2022) — [`range_auc`];
//! * **ADD**, the Average (sequence) Detection Delay of Eq. (13) with the
//!   reward-once / penalize-once convention — [`add`];
//! * multi-run aggregation (mean ± std) — [`agg`].

pub mod add;
pub mod agg;
pub mod point;
pub mod range_auc;
pub mod roc;
pub mod threshold;

pub use add::average_detection_delay;
pub use agg::{mean_std, RunAggregate};
pub use point::{confusion, point_adjust, PrF1};
pub use range_auc::range_auc_pr;
pub use roc::roc_auc;
pub use threshold::{best_f1_threshold, threshold_at_percentile};
