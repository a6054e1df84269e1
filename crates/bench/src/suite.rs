//! Cached evaluation suites shared by the table binaries.

use std::collections::HashMap;
use std::path::PathBuf;

use imdiff_data::synthetic::{generate, Benchmark, LabeledDataset};
use imdiff_data::Detector;
use imdiff_registry::{AnyDetector, DetectorKind};
use imdiffusion::{AblationVariant, ImDiffusionDetector};

use crate::cache::{self, CellKey, CellMetrics};
use crate::eval::{evaluate_ensemble, evaluate_scores};
use crate::HarnessProfile;

/// The eleven detectors of Table 2, in the paper's row order: every
/// registered family except the z-score rung, which is not in the paper.
pub fn table2_detectors() -> impl Iterator<Item = DetectorKind> {
    DetectorKind::ALL
        .into_iter()
        .filter(|&kind| kind != DetectorKind::ZScore)
}

/// Cache file for the Table 2/3/4 offline suite.
pub fn offline_cache_path() -> PathBuf {
    cache::results_dir().join("offline_cells.csv")
}

/// Cache file for the Table 5/6 ablation suite.
pub fn ablation_cache_path() -> PathBuf {
    cache::results_dir().join("ablation_cells.csv")
}

/// Runs (or loads) the full offline suite: every Table 2 detector on every
/// benchmark for `profile.runs` seeds. Prints progress to stderr since a
/// cold run takes minutes.
pub fn run_offline_suite(profile: &HarnessProfile) -> HashMap<CellKey, CellMetrics> {
    let path = offline_cache_path();
    let mut cells = cache::load(&path);
    for benchmark in Benchmark::all() {
        for run in 0..profile.runs {
            let mut dataset: Option<LabeledDataset> = None;
            for detector in table2_detectors() {
                let key = CellKey {
                    detector: detector.name().to_string(),
                    dataset: benchmark.name().to_string(),
                    run,
                };
                if cells.contains_key(&key) {
                    continue;
                }
                let ds = dataset
                    .get_or_insert_with(|| generate(benchmark, &profile.size, 1000 + run));
                let start = std::time::Instant::now();
                let metrics = run_cell(profile, detector, ds, run);
                eprintln!(
                    "[offline] {detector} on {} run {run}: F1={:.3} ({:.1}s)",
                    benchmark.name(),
                    metrics.f1,
                    start.elapsed().as_secs_f64()
                );
                cache::append(&path, &key, &metrics).expect("write cache");
                cells.insert(key, metrics);
            }
        }
    }
    cells
}

/// Evaluates one (detector, dataset, run) cell. ImDiffusion is scored
/// from its ensemble trace, every baseline from its score series.
fn run_cell(
    profile: &HarnessProfile,
    kind: DetectorKind,
    ds: &LabeledDataset,
    run: u64,
) -> CellMetrics {
    let mut det = AnyDetector::new(kind, profile.imdiffusion_config(), 7000 + run);
    det.fit(&ds.train).expect("fit");
    let detection = det.detect(&ds.test).expect("detect");
    match det.as_imdiffusion().and_then(ImDiffusionDetector::last_output) {
        Some(out) => evaluate_ensemble(out, ds),
        None => evaluate_scores(&detection, ds),
    }
}

/// Runs (or loads) the ablation suite of Table 5/6: the eight
/// [`AblationVariant`]s on every benchmark. One run per cell in the quick
/// profile (ablations are deltas, not headline numbers).
pub fn run_ablation_suite(profile: &HarnessProfile) -> HashMap<CellKey, CellMetrics> {
    let path = ablation_cache_path();
    let mut cells = cache::load(&path);
    let runs = if profile.quick { 1 } else { profile.runs };
    for benchmark in Benchmark::all() {
        for run in 0..runs {
            let mut dataset: Option<LabeledDataset> = None;
            // The Full model's ensemble output is shared with
            // inference-only variants (NonEnsemble).
            let mut full_out: Option<imdiffusion::EnsembleOutput> = None;
            for variant in AblationVariant::all() {
                let key = CellKey {
                    detector: variant.name().to_string(),
                    dataset: benchmark.name().to_string(),
                    run,
                };
                if cells.contains_key(&key) {
                    continue;
                }
                let ds = dataset
                    .get_or_insert_with(|| generate(benchmark, &profile.size, 1000 + run));
                let cfg = variant.apply(&profile.imdiffusion_config());
                let seed = 7000 + run;
                let start = std::time::Instant::now();
                let metrics = if variant.reuses_full_model() {
                    if full_out.is_none() {
                        let mut det = ImDiffusionDetector::new(
                            AblationVariant::Full.apply(&profile.imdiffusion_config()),
                            seed,
                        );
                        det.fit(&ds.train).expect("fit full");
                        let _ = det.detect(&ds.test).expect("detect full");
                        full_out = Some(det.last_output().expect("output").clone());
                    }
                    let out = full_out.as_ref().expect("full output");
                    match variant {
                        AblationVariant::Full => evaluate_ensemble(out, ds),
                        // NonEnsemble: same trained model, but only the
                        // fully denoised step participates in thresholding.
                        _ => evaluate_ensemble(&non_ensemble_view(out), ds),
                    }
                } else {
                    let mut det = ImDiffusionDetector::new(cfg, seed);
                    det.fit(&ds.train).expect("fit variant");
                    let _ = det.detect(&ds.test).expect("detect variant");
                    evaluate_ensemble(det.last_output().expect("output"), ds)
                };
                eprintln!(
                    "[ablation] {} on {} run {run}: F1={:.3} ({:.1}s)",
                    variant.name(),
                    benchmark.name(),
                    metrics.f1,
                    start.elapsed().as_secs_f64()
                );
                cache::append(&path, &key, &metrics).expect("write cache");
                cells.insert(key, metrics);
            }
        }
    }
    cells
}

/// Restricts an ensemble output to its final denoising step (the
/// non-ensemble ablation: thresholding only the fully denoised error).
fn non_ensemble_view(out: &imdiffusion::EnsembleOutput) -> imdiffusion::EnsembleOutput {
    let last = out.steps.last().expect("at least one step").clone();
    imdiffusion::EnsembleOutput {
        scores: last.error.clone(),
        votes: last.labels.iter().map(|&l| u32::from(l)).collect(),
        labels: last.labels.clone(),
        steps: vec![last],
        tau_base: out.tau_base,
        vote_threshold: 0,
        cell_error: out.cell_error.clone(),
        channels: out.channels,
        missing_cells: out.missing_cells,
    }
}

/// Aggregates cells into per-(detector, dataset) run statistics.
pub fn aggregate(
    cells: &HashMap<CellKey, CellMetrics>,
) -> HashMap<(String, String), imdiff_metrics::RunAggregate> {
    let mut out: HashMap<(String, String), imdiff_metrics::RunAggregate> = HashMap::new();
    for (key, m) in cells {
        let agg = out
            .entry((key.detector.clone(), key.dataset.clone()))
            .or_default();
        agg.push(
            imdiff_metrics::PrF1 {
                precision: m.precision,
                recall: m.recall,
                f1: m.f1,
            },
            m.r_auc_pr,
            m.add,
        );
    }
    out
}
