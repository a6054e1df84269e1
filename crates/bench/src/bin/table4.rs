//! Reproduces **Table 4**: ADD (mean±std, in steps) for every detector on
//! every dataset plus the cross-dataset average. Reuses the Table 2 cell
//! cache. Artifact: `results/table4.csv`.

use imdiff_bench::suite::{aggregate, run_offline_suite, table2_detectors};
use imdiff_bench::table::{pm, render, write_csv};
use imdiff_bench::{cache, HarnessProfile};
use imdiff_data::synthetic::Benchmark;

fn main() {
    let profile = HarnessProfile::from_env();
    let cells = run_offline_suite(&profile);
    let agg = aggregate(&cells);

    let mut headers: Vec<&str> = vec!["Method"];
    let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
    headers.extend(&names);
    headers.push("Average");

    let mut rows = Vec::new();
    for det in table2_detectors().map(|kind| kind.name()) {
        let mut row = vec![det.to_string()];
        let (mut sum, mut n) = (0.0f64, 0.0f64);
        for benchmark in Benchmark::all() {
            match agg.get(&(det.to_string(), benchmark.name().to_string())) {
                Some(a) => {
                    let (m, s) = a.add_mean_std();
                    row.push(pm(m, s));
                    sum += m;
                    n += 1.0;
                }
                None => row.push("-".into()),
            }
        }
        row.push(if n > 0.0 {
            format!("{:.0}", sum / n)
        } else {
            "-".into()
        });
        rows.push(row);
    }
    println!("{}", render(&headers, &rows));
    let csv = cache::results_dir().join("table4.csv");
    write_csv(&csv, &headers, &rows).expect("write table4.csv");
    eprintln!("wrote {}", csv.display());
}
