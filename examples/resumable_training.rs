//! Crash-safe training: interrupt a run mid-flight, then resume it from
//! the persisted `IMTS` checkpoint and verify the result is bit-identical
//! to never having crashed. Also injects a NaN into the training data to
//! show the divergence sentinels rolling back and retrying.
//!
//! ```sh
//! cargo run --release --example resumable_training
//! ```

use imdiffusion_repro::core::{
    train, train_resume, ImDiffusionConfig, ImTransformer, Trainer, TrainerOptions,
};
use imdiffusion_repro::data::synthetic::{generate, Benchmark, SizeProfile};
use imdiffusion_repro::data::{NormMethod, Normalizer};
use imdiffusion_repro::diffusion::NoiseSchedule;
use imdiffusion_repro::nn::layers::Module;

fn main() {
    let size = SizeProfile {
        train_len: 400,
        test_len: 100,
    };
    let ds = generate(Benchmark::Gcp, &size, 17);
    let cfg = ImDiffusionConfig {
        train_steps: 60,
        ..ImDiffusionConfig::quick()
    };
    let norm = Normalizer::fit(&ds.train, NormMethod::MinMax);
    let train_n = norm.transform(&ds.train);
    let schedule = NoiseSchedule::new(cfg.schedule, cfg.diffusion_steps);
    let (model_seed, train_seed) = (17u64, 99u64);

    // Reference: one uninterrupted run.
    let reference = ImTransformer::new(&cfg, train_n.dim(), model_seed);
    let ref_report = train(&reference, &cfg, &schedule, &train_n, train_seed)
        .expect("reference run");
    println!(
        "uninterrupted: {} steps, final loss {:.5}",
        ref_report.losses.len(),
        ref_report.final_loss()
    );

    // "Crash" at step 37 — the trainer checkpointed every 10 steps, so the
    // IMTS file on disk holds the complete state as of step 30.
    let ckpt = std::env::temp_dir().join("imdiffusion-resumable-example.imts");
    let victim = ImTransformer::new(&cfg, train_n.dim(), model_seed);
    Trainer::new(TrainerOptions {
        checkpoint_every: 10,
        checkpoint_path: Some(ckpt.clone()),
        stop_after: Some(37),
        ..TrainerOptions::default()
    })
    .run(&victim, &cfg, &schedule, &train_n, train_seed)
    .expect("interrupted run");
    println!("simulated crash at step 37 (last checkpoint: step 30)");

    // A new process: fresh model with the same seeds, resume from disk.
    let revived = ImTransformer::new(&cfg, train_n.dim(), model_seed);
    let resumed = train_resume(&revived, &cfg, &schedule, &train_n, train_seed, &ckpt)
        .expect("resumed run");
    println!(
        "resumed from step {:?}: {} steps total, final loss {:.5}",
        resumed.resumed_at,
        resumed.losses.len(),
        resumed.final_loss()
    );
    let identical = resumed.losses == ref_report.losses
        && reference
            .params()
            .iter()
            .zip(revived.params())
            .all(|(a, b)| a.to_vec() == b.to_vec());
    println!(
        "bit-identical to the uninterrupted run: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    std::fs::remove_file(&ckpt).ok();

    // Divergence sentinels: poison one training cell with NaN and watch
    // the trainer roll back, back off the learning rate, and recover. A
    // short checkpoint interval keeps each rollback cheap; row 370 falls
    // in a single stride-24 window, so only ~1/15 of samples are doomed,
    // and a widened retry budget rides out unlucky batch streaks.
    let mut poisoned = train_n.clone();
    poisoned.set(370, 0, f32::NAN);
    let model = ImTransformer::new(&cfg, poisoned.dim(), model_seed);
    let report = Trainer::new(TrainerOptions {
        checkpoint_every: 5,
        max_retries: 8,
        ..TrainerOptions::default()
    })
    .run(&model, &cfg, &schedule, &poisoned, train_seed)
    .expect("sentinels should recover from one poisoned cell");
    println!(
        "\npoisoned run: {} sentinel incident(s), final loss {:.5}",
        report.incidents.len(),
        report.final_loss()
    );
    for inc in report.incidents.iter().take(5) {
        println!(
            "  step {:>3}  retry {}  lr x{:.4}  {:?}",
            inc.step, inc.retry, inc.lr_scale, inc.kind
        );
    }
}
