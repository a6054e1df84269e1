//! Walkthrough of the built-in observability layer: spans, counters and
//! histograms recorded across training, ensemble inference, the worker
//! pool and the streaming monitor, exported as a JSON snapshot — with the
//! determinism contract demonstrated along the way (enabled vs disabled
//! observability produces bit-identical detector output).
//!
//! ```sh
//! IMDIFF_OBS=1 cargo run --release --example observability
//! ```
//!
//! Without `IMDIFF_OBS=1` every primitive is a no-op: the example then
//! verifies that nothing was recorded and writes no snapshot file.

use imdiffusion_repro::core::{ImDiffusionConfig, ImDiffusionDetector, StreamingMonitor};
use imdiffusion_repro::data::faults::{Fault, FaultInjector};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::nn::obs;

const SNAPSHOT_PATH: &str = "target/observability.json";

fn main() {
    let enabled = obs::enabled(); // resolves IMDIFF_OBS once
    println!(
        "observability: {} (IMDIFF_OBS={})",
        if enabled { "ENABLED" } else { "disabled" },
        std::env::var("IMDIFF_OBS").unwrap_or_else(|_| "<unset>".into())
    );
    obs::reset();

    // ── Workload: train, detect, stream ─────────────────────────────────
    let size = SizeProfile {
        train_len: 200,
        test_len: 64,
    };
    let ds = generate(Benchmark::Gcp, &size, 7);
    let cfg = ImDiffusionConfig {
        window: 16,
        train_steps: 16,
        ddim_steps: Some(4),
        ..ImDiffusionConfig::quick()
    };
    let mut det = ImDiffusionDetector::new(cfg, 7);
    det.fit(&ds.train).expect("fit"); // trainer.* spans
    let detection = det.detect(&ds.test).expect("detect"); // infer.* spans
    println!(
        "trained {} steps, scored {} points",
        16,
        detection.scores.len()
    );

    // Determinism contract: spans only observe. Score the same series with
    // observability toggled off and on — the bits must match exactly.
    obs::set_enabled(false);
    let reference = det.detect(&ds.test).expect("reference detect");
    obs::set_enabled(enabled);
    let bits = |d: &[f64]| d.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&detection.scores),
        bits(&reference.scores),
        "observability perturbed detector output"
    );
    println!("determinism: enabled vs disabled scores are bit-identical");

    // Streaming leg: corrupted telemetry through the monitor records the
    // stream.* counters (imputed cells, bridged gap, state transitions)
    // and the faults.* injection counters.
    let clean = ds.test.slice_time(0, 64);
    let faulty = FaultInjector::new(11)
        .with(Fault::NanCells { rate: 0.02 })
        .with(Fault::Gap { start: 30, len: 2 })
        .corrupt(&clean);
    let mut monitor = StreamingMonitor::new(det, clean.dim(), 8).expect("monitor");
    let mut pending = 0usize;
    let mut verdicts = 0usize;
    for row in &faulty.rows {
        let Some(values) = row else {
            pending += 1;
            continue;
        };
        if pending > 0 {
            monitor.notify_gap(pending);
            pending = 0;
        }
        verdicts += monitor.push(values).expect("push").len();
    }
    println!(
        "streamed {} rows ({} verdicts), health {:?}",
        faulty.delivered(),
        verdicts,
        monitor.health().state
    );

    if !enabled {
        // Disabled path: the registry must be empty and no snapshot file
        // may be produced.
        let snap = obs::snapshot();
        assert!(snap.is_empty(), "disabled observability recorded data");
        std::fs::remove_file(SNAPSHOT_PATH).ok(); // drop stale artifacts
        println!("no-op fast path verified: nothing recorded, no file written");
        println!("re-run with IMDIFF_OBS=1 to export a snapshot");
        return;
    }

    // ── Snapshot: export, re-parse, verify round-trip ───────────────────
    let snap = obs::snapshot();
    obs::export(SNAPSHOT_PATH.as_ref()).expect("export snapshot");
    let text = std::fs::read_to_string(SNAPSHOT_PATH).expect("read snapshot back");
    let parsed = obs::Snapshot::from_json(&text).expect("parse snapshot");
    assert_eq!(parsed, snap, "JSON round-trip altered the snapshot");
    println!("exported {SNAPSHOT_PATH} ({} bytes), round-trip OK", text.len());

    for name in [
        "trainer.run",
        "trainer.step",
        "trainer.shard",
        "autodiff.backward",
        "nn.unary.bwd",
        "nn.binary.bwd",
        "infer.ensemble",
        "infer.denoise_step",
        "pool.worker",
        "nn.matmul",
        "stream.evaluate",
    ] {
        let s = snap
            .span(name)
            .unwrap_or_else(|| panic!("expected span {name} missing"));
        assert!(s.total_ns >= s.self_ns, "span {name}: self time > total");
    }

    println!("\ntop spans by total time:");
    let mut spans = snap.spans.clone();
    spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
    for (name, s) in spans.iter().take(8) {
        println!(
            "  {name:<24} calls {:>6}  total {:>9.3} ms  self {:>9.3} ms",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    println!("\ncounters:");
    for (name, v) in &snap.counters {
        println!("  {name:<24} {v}");
    }
}
