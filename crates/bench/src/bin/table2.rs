//! Reproduces **Table 2**: precision, recall, F1, F1-std and R-AUC-PR of
//! all eleven detectors on the six benchmark datasets, averaged over
//! independent runs.
//!
//! Results are cached in `results/offline_cells.csv`; the first run
//! computes every cell (minutes on one core), subsequent runs print
//! instantly. Artifacts: `results/table2.csv`.

use imdiff_bench::suite::{aggregate, run_offline_suite, table2_detectors};
use imdiff_bench::table::{f4, render, write_csv};
use imdiff_bench::{cache, HarnessProfile};
use imdiff_data::synthetic::Benchmark;

fn main() {
    let profile = HarnessProfile::from_env();
    eprintln!(
        "Table 2: {} runs per cell, train/test length {}/{}",
        profile.runs, profile.size.train_len, profile.size.test_len
    );
    let cells = run_offline_suite(&profile);
    let agg = aggregate(&cells);

    let mut csv_rows = Vec::new();
    for benchmark in Benchmark::all() {
        let ds = benchmark.name();
        println!("\n=== {ds} ===");
        let mut rows = Vec::new();
        for det in table2_detectors().map(|kind| kind.name()) {
            if let Some(a) = agg.get(&(det.to_string(), ds.to_string())) {
                rows.push(vec![
                    det.to_string(),
                    f4(a.precision()),
                    f4(a.recall()),
                    f4(a.f1()),
                    f4(a.f1_std()),
                    f4(a.r_auc_pr()),
                ]);
                csv_rows.push(vec![
                    ds.to_string(),
                    det.to_string(),
                    f4(a.precision()),
                    f4(a.recall()),
                    f4(a.f1()),
                    f4(a.f1_std()),
                    f4(a.r_auc_pr()),
                ]);
            }
        }
        println!(
            "{}",
            render(&["Method", "P", "R", "F1", "F1-std", "R-AUC-PR"], &rows)
        );
    }
    let csv = cache::results_dir().join("table2.csv");
    write_csv(
        &csv,
        &["dataset", "method", "P", "R", "F1", "F1-std", "R-AUC-PR"],
        &csv_rows,
    )
    .expect("write table2.csv");
    eprintln!("wrote {}", csv.display());
}
