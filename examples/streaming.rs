//! Streaming deployment: checkpoint a trained detector, reload it, monitor
//! a live stream point by point, and restart mid-stream from the
//! checkpoint plus its stream-state sidecar without changing a verdict.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use imdiffusion_repro::core::{stream_path, ImDiffusionConfig, StreamingMonitor};
use imdiffusion_repro::data::production::{generate_production_stream, ProductionConfig};
use imdiffusion_repro::data::Detector;
use imdiffusion_repro::registry::{AnyDetector, DetectorKind};

fn main() {
    let cfg = ProductionConfig {
        services: 8,
        train_len: 600,
        test_len: 300,
        day_len: 200,
        incidents: 3,
    };
    let stream = generate_production_stream(&cfg, 55);
    let channels = stream.train.dim();

    // Train once...
    let mut det = AnyDetector::new(DetectorKind::ImDiffusion, ImDiffusionConfig::quick(), 55);
    det.fit(&stream.train).expect("fit");

    // ...checkpoint to disk as an IMDE envelope (what a production rollout
    // would bake into the serving image)...
    let ckpt = std::env::temp_dir().join("imdiffusion-example.imde");
    det.save(&ckpt).expect("save checkpoint");
    println!("checkpoint written to {}", ckpt.display());

    // ...and reload in the "serving process".
    let restored = AnyDetector::load(&ImDiffusionConfig::quick(), 55, channels, &ckpt)
        .expect("load checkpoint");

    // Drive the restored detector over the live stream. hop=16 re-runs
    // ensemble inference every 16 arrivals (8 minutes of 30s samples).
    let mut monitor = StreamingMonitor::new(restored, channels, 16).expect("monitor");
    let mut alarms = 0usize;
    let mut judged = 0usize;
    let restart_at = stream.test.len() / 2;
    let mut resumed: Option<StreamingMonitor<AnyDetector>> = None;
    for l in 0..stream.test.len() {
        if l == restart_at {
            // Mid-stream restart: persist the stream state next to the
            // checkpoint (the IMSM sidecar), then rebuild a monitor from
            // both files, as a restarted serving process would.
            monitor.checkpoint_stream(&ckpt).expect("write stream sidecar");
            let det = AnyDetector::load(&ImDiffusionConfig::quick(), 55, channels, &ckpt)
                .expect("reload checkpoint");
            resumed = Some(StreamingMonitor::restore_with(det, &ckpt).expect("restore monitor"));
            println!("restarted at sample {l} from {}", stream_path(&ckpt).display());
        }
        let verdicts = monitor.push(stream.test.row(l)).expect("push");
        if let Some(r) = resumed.as_mut() {
            // The restored monitor must judge every later sample exactly as
            // the uninterrupted one does.
            let again = r.push(stream.test.row(l)).expect("push after restart");
            assert_eq!(again, verdicts, "restored monitor diverged at sample {l}");
        }
        for v in verdicts {
            judged += 1;
            if v.anomalous {
                alarms += 1;
                let truth = stream.labels[v.index as usize];
                println!(
                    "ALARM at sample {} (votes {}, score {:.3}) — ground truth: {}",
                    v.index,
                    v.votes,
                    v.score,
                    if truth { "incident" } else { "false alarm" }
                );
            }
        }
    }
    println!(
        "\nstream finished: {judged} points judged, {alarms} alarms, {} true incidents",
        stream.events().len()
    );
    println!("restored monitor matched the uninterrupted one on every verdict");
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(stream_path(&ckpt)).ok();
}
