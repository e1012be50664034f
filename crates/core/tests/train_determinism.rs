//! Training is bitwise deterministic at any compute-pool size.
//!
//! The trainer runs every forward pass on the training thread in
//! example order (the only consumer of the dropout RNG), fans the
//! backward passes out over the compute pool, and adds the per-example
//! gradients in example order (DESIGN.md §10). So the trained weights,
//! the per-epoch losses and the gradient norms must not move a bit
//! between `QREC_THREADS=1` (the serial schedule), 2 and 8.
//!
//! The pool is process-global and sized once from `QREC_THREADS`, so
//! each size trains in a child process that prints one digest line per
//! case; the parent compares them.

use qrec_core::prelude::*;
use qrec_nn::trainer::{try_train_seq2seq, EncodedPair, TrainConfig, TrainReport};
use qrec_nn::{Params, Transformer, TransformerConfig};
use qrec_workload::gen::{generate, WorkloadProfile};
use qrec_workload::Split;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Set in child processes so the parent test does not recurse.
const CHILD_ENV: &str = "QREC_TRAIN_DET_CHILD";

/// The cases the children run, by test name.
const CASES: [&str; 3] = [
    "small_transformer_digest",
    "template_classifier_digest",
    "wide_vocab_digest",
];

/// FNV-1a over the weight bits, then the per-epoch loss pairs and
/// gradient norms spelled out bit for bit.
fn digest(params: &Params, report: &TrainReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, t) in params.named_tensors() {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let epochs: Vec<String> = report
        .epochs
        .iter()
        .map(|e| {
            format!(
                "{:08x}/{:08x}/{:08x}",
                e.train_loss.to_bits(),
                e.val_loss.to_bits(),
                e.grad_norm.to_bits()
            )
        })
        .collect();
    format!("weights={h:016x} epochs={}", epochs.join(","))
}

fn print_digest(case: &str, params: &Params, report: &TrainReport) {
    assert!(!report.epochs.is_empty(), "{case}: no epoch ran");
    println!("DIGEST {case} {}", digest(params, report));
}

fn small_log() -> (qrec_workload::Workload, Split) {
    let profile = WorkloadProfile {
        sessions: 6,
        ..WorkloadProfile::tiny()
    };
    let (w, _) = generate(&profile, 12);
    let mut rng = StdRng::seed_from_u64(5);
    let split = Split::paper(w.pairs(), &mut rng);
    (w, split)
}

fn small_config() -> RecommenderConfig {
    let mut cfg = RecommenderConfig::new(Arch::Transformer, SeqMode::Aware);
    cfg.size = SizePreset::Small;
    cfg.train = TrainConfig {
        epochs: 2,
        batch_size: 8,
        patience: 0,
        ..TrainConfig::default()
    };
    cfg
}

/// The Small transformer (dropout 0.1) as the recommender trains it.
#[test]
fn small_transformer_digest() {
    let (w, split) = small_log();
    let (rec, report) = Recommender::try_train(&split, &w, small_config()).unwrap();
    print_digest("small_transformer_digest", rec.params(), &report);
}

/// The template classifier (Small encoder, head dropout 0.1).
#[test]
fn template_classifier_digest() {
    let (_, split) = small_log();
    let cfg = TemplateClfConfig {
        min_support: 1,
        train: small_config().train,
        ..TemplateClfConfig::default()
    };
    let (clf, report) = TemplateModel::train_from_scratch(
        Arch::Transformer,
        SizePreset::Small,
        SeqMode::Aware,
        &split,
        cfg,
        1,
        3,
    );
    print_digest("template_classifier_digest", clf.parts().3, &report);
}

/// A vocabulary wide enough, and targets long enough, that the
/// `L×d · d×vocab` projection and its input gradient take the parallel
/// GEMM path: the input-gradient GEMM then fans out over the pool from
/// inside a backward job that itself runs on the pool.
#[test]
fn wide_vocab_digest() {
    const VOCAB: usize = 2800;
    // 65 teacher-forced target rows: the 64-row floor of a parallel GEMM.
    const TGT_LEN: usize = 66;
    let mut rng = StdRng::seed_from_u64(9);
    let mut params = Params::new();
    let model = Transformer::new(&mut params, TransformerConfig::small(VOCAB), &mut rng);
    let seq = |rng: &mut StdRng, len: usize| {
        let mut s = vec![1];
        s.extend((0..len - 2).map(|_| rng.gen_range(4..VOCAB)));
        s.push(2);
        s
    };
    let pairs: Vec<EncodedPair> = (0..2)
        .map(|_| EncodedPair {
            src: seq(&mut rng, 8),
            tgt: seq(&mut rng, TGT_LEN),
        })
        .collect();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 2,
        patience: 0,
        ..TrainConfig::default()
    };
    let before = qrec_tensor::kernel::counters().parallel;
    let report = try_train_seq2seq(&model, &mut params, &pairs, &pairs[..1], &cfg).unwrap();
    let parallel = qrec_tensor::kernel::counters().parallel - before;
    let width = qrec_tensor::pool::configured_threads()
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    if width >= 2 {
        // One projection per forward pass (training and validation)
        // plus one input gradient per backward pass.
        let examples = (pairs.len() * 2 + 1) * cfg.epochs;
        assert!(
            parallel >= examples as u64,
            "only {parallel} parallel GEMMs for {examples} forward+backward passes"
        );
    }
    print_digest("wide_vocab_digest", &params, &report);
}

#[test]
fn training_is_bitwise_identical_across_pool_sizes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return; // already inside a child run
    }
    let exe = std::env::current_exe().expect("test binary path");
    let runs: Vec<(&str, Vec<String>)> = ["1", "2", "8"]
        .into_iter()
        .map(|threads| {
            let out = std::process::Command::new(&exe)
                .args(CASES)
                .args(["--exact", "--test-threads=1", "--nocapture"])
                .env("QREC_THREADS", threads)
                .env(CHILD_ENV, "1")
                .output()
                .expect("spawn child test process");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(
                out.status.success(),
                "training failed under QREC_THREADS={threads}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let mut digests: Vec<String> = stdout
                .lines()
                .filter_map(|l| l.find("DIGEST ").map(|at| l[at + 7..].to_string()))
                .collect();
            digests.sort();
            assert_eq!(digests.len(), CASES.len(), "{stdout}");
            (threads, digests)
        })
        .collect();
    let (_, serial) = &runs[0];
    for (threads, digests) in &runs[1..] {
        for (want, got) in serial.iter().zip(digests) {
            assert_eq!(
                got, want,
                "QREC_THREADS={threads} differs from the serial schedule"
            );
        }
    }
}
