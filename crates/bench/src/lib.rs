//! `imdiff-bench` — the evaluation harness reproducing every table and
//! figure of the paper.
//!
//! Binaries (one per paper artifact) live in `src/bin/`:
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table 2 — P/R/F1/F1-std/R-AUC-PR, 11 detectors × 6 datasets |
//! | `table3` | Table 3 — the same metrics averaged over datasets |
//! | `table4` | Table 4 — ADD (mean±std) per detector × dataset |
//! | `table5` | Table 5 — ablations × 6 datasets |
//! | `table6` | Table 6 — ablation averages |
//! | `table7` | Table 7 — production-stream improvement + throughput |
//! | `fig1` | Fig. 1 — task-mode error example |
//! | `fig2` | Fig. 2 — conditional vs unconditional error example |
//! | `fig7` | Fig. 7 — predicted error of the three task modes per dataset |
//! | `fig8` | Fig. 8 — step-wise ensemble example |
//! | `fig9` | Fig. 9 — normal/abnormal error gap, conditional vs unconditional |
//!
//! Expensive cells are cached in `results/*.csv`; delete the file to force
//! recomputation. `IMDIFF_PROFILE=paper` switches to the larger profile,
//! `IMDIFF_RUNS=n` overrides the number of independent runs per cell.

pub mod cache;
pub mod eval;
pub mod suite;
pub mod table;

/// Harness-wide run configuration derived from environment variables.
#[derive(Debug, Clone)]
pub struct HarnessProfile {
    /// Dataset size profile.
    pub size: imdiff_data::synthetic::SizeProfile,
    /// Independent runs per (detector, dataset) cell (paper: 6).
    pub runs: u64,
    /// True when running the reduced `quick` profile.
    pub quick: bool,
}

impl HarnessProfile {
    /// Reads `IMDIFF_PROFILE` / `IMDIFF_RUNS`.
    pub fn from_env() -> Self {
        let quick = !matches!(std::env::var("IMDIFF_PROFILE").as_deref(), Ok("paper"));
        let runs = std::env::var("IMDIFF_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 2 } else { 6 });
        HarnessProfile {
            size: imdiff_data::synthetic::SizeProfile::from_env(),
            runs,
            quick,
        }
    }

    /// The ImDiffusion configuration matching this profile.
    pub fn imdiffusion_config(&self) -> imdiffusion::ImDiffusionConfig {
        if self.quick {
            imdiffusion::ImDiffusionConfig::quick()
        } else {
            imdiffusion::ImDiffusionConfig::paper()
        }
    }
}
