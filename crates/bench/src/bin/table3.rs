//! Reproduces **Table 3**: P/R/F1/F1-std/R-AUC-PR averaged over the six
//! benchmark datasets. Reuses (or populates) the Table 2 cell cache.
//! Artifact: `results/table3.csv`.

use imdiff_bench::suite::{aggregate, run_offline_suite, table2_detectors};
use imdiff_bench::table::{f4, render, write_csv};
use imdiff_bench::{cache, HarnessProfile};
use imdiff_data::synthetic::Benchmark;

fn main() {
    let profile = HarnessProfile::from_env();
    let cells = run_offline_suite(&profile);
    let agg = aggregate(&cells);

    let mut rows = Vec::new();
    for det in table2_detectors().map(|kind| kind.name()) {
        let (mut p, mut r, mut f1, mut f1s, mut auc) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut n = 0.0;
        for benchmark in Benchmark::all() {
            if let Some(a) = agg.get(&(det.to_string(), benchmark.name().to_string())) {
                p += a.precision();
                r += a.recall();
                f1 += a.f1();
                f1s += a.f1_std();
                auc += a.r_auc_pr();
                n += 1.0;
            }
        }
        if n > 0.0 {
            rows.push(vec![
                det.to_string(),
                f4(p / n),
                f4(r / n),
                f4(f1 / n),
                f4(f1s / n),
                f4(auc / n),
            ]);
        }
    }
    println!(
        "{}",
        render(&["Method", "P", "R", "F1", "F1-std", "R-AUC-PR"], &rows)
    );
    let csv = cache::results_dir().join("table3.csv");
    write_csv(
        &csv,
        &["method", "P", "R", "F1", "F1-std", "R-AUC-PR"],
        &rows,
    )
    .expect("write table3.csv");
    eprintln!("wrote {}", csv.display());
}
