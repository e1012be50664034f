//! Mini-batch training loops with validation-based early stopping
//! (Section 6.2.4: Adam, cross-entropy, early stopping on validation
//! loss).

use crate::adam::{Adam, AdamConfig};
use crate::classifier::{classify_logits, ClassifierHead};
use crate::params::{forward_eval, forward_train, Fwd, Params};
use crate::schedule::LrSchedule;
use crate::seq2seq::Seq2Seq;
use qrec_tensor::pool::{Ordered, Pool};
use qrec_tensor::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Epochs completed across all training runs in this process.
fn epochs_counter() -> &'static Arc<qrec_obs::Counter> {
    static C: OnceLock<Arc<qrec_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("nn.train.epochs"))
}

/// Supervision tokens consumed across all training runs.
fn tokens_counter() -> &'static Arc<qrec_obs::Counter> {
    static C: OnceLock<Arc<qrec_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| qrec_obs::global().counter("nn.train.tokens"))
}

/// Epoch wall-clock duration histogram.
fn epoch_hist() -> &'static Arc<qrec_obs::Histogram> {
    static H: OnceLock<Arc<qrec_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| qrec_obs::global().histogram_log2("nn.train.epoch_us"))
}

/// An encoded training pair: source ids and target ids, both wrapped in
/// `<SOS> … <EOS>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedPair {
    /// `Q_i` token ids.
    pub src: Vec<usize>,
    /// `Q_{i+1}` token ids.
    pub tgt: Vec<usize>,
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size (the paper tests `[16, 64]`).
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// Early-stopping patience: stop after this many epochs without a
    /// validation-loss improvement. `0` disables early stopping.
    pub patience: usize,
    /// Learning-rate schedule applied on top of `adam.lr`.
    #[serde(default)]
    pub schedule: LrSchedule,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            adam: AdamConfig::default(),
            patience: 2,
            schedule: LrSchedule::Constant,
            seed: 7,
        }
    }
}

/// Per-epoch training telemetry, recorded alongside the loss pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss of this epoch.
    pub train_loss: f32,
    /// Mean validation loss after this epoch.
    pub val_loss: f32,
    /// L2 norm of the last mini-batch's accumulated gradient, captured
    /// just before the optimizer step consumed it.
    pub grad_norm: f32,
    /// Supervision tokens consumed per wall-clock second.
    pub tokens_per_sec: f32,
    /// Wall-clock epoch duration in seconds.
    pub seconds: f32,
}

/// What happened during training.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// `(train_loss, val_loss)` per epoch actually run.
    pub epoch_losses: Vec<(f32, f32)>,
    /// Index of the epoch whose weights were kept.
    pub best_epoch: usize,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Whether early stopping fired.
    pub early_stopped: bool,
    /// Per-epoch telemetry (loss, gradient norm, throughput). Defaults
    /// to empty when deserializing reports written before this field
    /// existed.
    #[serde(default)]
    pub epochs: Vec<EpochReport>,
}

impl TrainReport {
    /// Best validation loss achieved.
    pub fn best_val_loss(&self) -> f32 {
        self.epoch_losses
            .get(self.best_epoch)
            .map_or(f32::INFINITY, |e| e.1)
    }

    /// Training loss of the last epoch actually run, if any ran.
    pub fn final_train_loss(&self) -> Option<f32> {
        self.epoch_losses.last().map(|e| e.0)
    }
}

/// Why a training run could not be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// `TrainConfig.epochs` was zero: the loop would run no epochs and
    /// produce an empty `epoch_losses`, which downstream consumers index.
    NoEpochs,
    /// The training set was empty: no gradient step could be taken.
    NoTrainingData,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoEpochs => write!(f, "training config requests zero epochs"),
            TrainError::NoTrainingData => write!(f, "training set is empty"),
        }
    }
}

impl std::error::Error for TrainError {}

/// One epoch's closing bookkeeping: bump the process-wide counters,
/// record the epoch duration, and append the telemetry row.
fn finish_epoch(
    epochs: &mut Vec<EpochReport>,
    epoch: usize,
    train_loss: f32,
    val_loss: f32,
    grad_norm: f32,
    tokens: usize,
    epoch_start: Instant,
) {
    let elapsed = epoch_start.elapsed();
    let seconds = elapsed.as_secs_f32();
    epochs_counter().inc();
    tokens_counter().add(tokens as u64);
    epoch_hist().record_duration(elapsed);
    epochs.push(EpochReport {
        epoch,
        train_loss,
        val_loss,
        grad_norm,
        tokens_per_sec: if seconds > 0.0 {
            tokens as f32 / seconds
        } else {
            0.0
        },
        seconds,
    });
}

fn validate_training(cfg: &TrainConfig, train_len: usize) -> Result<(), TrainError> {
    if cfg.epochs == 0 {
        return Err(TrainError::NoEpochs);
    }
    if train_len == 0 {
        return Err(TrainError::NoTrainingData);
    }
    Ok(())
}

/// Train a seq2seq model on query pairs; restores the weights of the
/// best validation epoch before returning (with an empty `val`, keeps
/// the last epoch's weights).
///
/// Panics on a degenerate configuration; use [`try_train_seq2seq`] for a
/// typed error instead.
#[must_use]
pub fn train_seq2seq<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    params: &mut Params,
    train: &[EncodedPair],
    val: &[EncodedPair],
    cfg: &TrainConfig,
) -> TrainReport {
    try_train_seq2seq(model, params, train, val, cfg)
        // qrec-lint: allow(no-panic-in-hot-path) -- documented panicking convenience wrapper; try_train_seq2seq is the typed path
        .unwrap_or_else(|e| panic!("train_seq2seq: {e}"))
}

/// Fallible variant of [`train_seq2seq`]: rejects zero-epoch configs and
/// empty training sets up front instead of returning a report with an
/// empty `epoch_losses` that callers would `unwrap` on.
pub fn try_train_seq2seq<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    params: &mut Params,
    train: &[EncodedPair],
    val: &[EncodedPair],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    run_training(
        params,
        train,
        !val.is_empty(),
        cfg,
        |pair| pair.tgt.len().saturating_sub(1),
        |fwd, pair| seq2seq_loss(model, fwd, pair),
        |params| eval_seq2seq(model, params, val, cfg.seed),
    )
}

/// Teacher-forced cross-entropy of one pair.
fn seq2seq_loss<M: Seq2Seq>(model: &M, fwd: &mut Fwd<'_>, pair: &EncodedPair) -> NodeId {
    let enc = model.encode(fwd, &pair.src);
    let tgt_in = &pair.tgt[..pair.tgt.len() - 1];
    let tgt_out = &pair.tgt[1..];
    let logits = model.decode(fwd, enc, tgt_in);
    // The decoder may truncate very long targets to its max_len; align
    // the target slice with the logits it actually produced.
    let rows = fwd.graph.value(logits).rows();
    fwd.graph.cross_entropy(logits, &tgt_out[..rows])
}

/// The epoch loop both trainers share: shuffle, run the mini-batches,
/// step Adam, validate, and keep the best-validation weights (the last
/// epoch's when there is no validation data, which also never stops
/// early).
fn run_training<T>(
    params: &mut Params,
    train: &[T],
    has_val: bool,
    cfg: &TrainConfig,
    tokens: impl Fn(&T) -> usize,
    loss: impl Fn(&mut Fwd<'_>, &T) -> NodeId,
    validate: impl Fn(&Params) -> f32,
) -> Result<TrainReport, TrainError> {
    validate_training(cfg, train.len())?;
    let start = Instant::now();
    let mut adam = Adam::new(cfg.adam, params);
    let base_lr = cfg.adam.lr;
    let mut global_step = 0u64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut best: Option<(f32, Params)> = None;
    let mut best_epoch = 0usize;
    let mut epoch_losses = Vec::new();
    let mut epochs = Vec::new();
    let mut early_stopped = false;

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let epoch_start = Instant::now();
        let mut epoch_tokens = 0usize;
        let mut last_grad_norm = 0.0f32;
        let mut train_loss = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let batch = chunk.iter().map(|&i| &train[i]);
            epoch_tokens += batch.clone().map(&tokens).sum::<usize>();
            let batch_loss = run_batch(params, &mut rng, batch, &loss);
            adam.set_lr(cfg.schedule.lr(base_lr, global_step));
            global_step += 1;
            last_grad_norm = params.grad_norm();
            adam.step(params, 1.0 / chunk.len() as f32);
            train_loss += (batch_loss / chunk.len() as f32) as f64;
            batches += 1;
        }
        let train_loss = (train_loss / batches.max(1) as f64) as f32;
        let val_loss = validate(params);
        epoch_losses.push((train_loss, val_loss));
        finish_epoch(
            &mut epochs,
            epoch,
            train_loss,
            val_loss,
            last_grad_norm,
            epoch_tokens,
            epoch_start,
        );

        if !has_val {
            best_epoch = epoch;
            continue;
        }
        let improved = best.as_ref().is_none_or(|(b, _)| val_loss < *b);
        if improved {
            best = Some((val_loss, params.share_weights()));
            best_epoch = epoch;
        } else if cfg.patience > 0 && epoch - best_epoch >= cfg.patience {
            early_stopped = true;
            break;
        }
    }
    if let Some((_, best_params)) = best {
        params.load_weights(best_params);
    }
    Ok(TrainReport {
        epoch_losses,
        best_epoch,
        train_time: start.elapsed(),
        early_stopped,
        epochs,
    })
}

/// One mini-batch; returns its summed loss and leaves the summed
/// gradients in `params`.
///
/// Forward passes run on this thread in example order: it is the only
/// consumer of the dropout RNG, so masks are drawn as in a serial loop.
/// Each finished graph's backward pass fans out over the compute pool
/// (at most pool width + 1 graphs in flight), and each example's
/// gradients are added into `params` in example order, so the optimizer
/// sees bitwise the sums a serial loop produces.
fn run_batch<'a, T: 'a>(
    params: &mut Params,
    rng: &mut StdRng,
    batch: impl Iterator<Item = &'a T>,
    loss: &impl Fn(&mut Fwd<'_>, &T) -> NodeId,
) -> f32 {
    let mut backward = Ordered::new(Pool::global());
    let mut batch_loss = 0.0f32;
    for ex in batch {
        // Add gradients as examples finish, in order; block only when
        // the in-flight cap is reached.
        while let Some(grads) = backward.try_pop() {
            params.add_grads(&grads);
        }
        if backward.in_flight() > backward.width() {
            if let Some(grads) = backward.pop() {
                params.add_grads(&grads);
            }
        }
        let (value, tape) = forward_train(params, rng, |fwd| loss(fwd, ex));
        batch_loss += value;
        backward.push(move || tape.backward());
    }
    while let Some(grads) = backward.pop() {
        params.add_grads(&grads);
    }
    batch_loss
}

/// Mean eval-mode loss over `data`. Eval mode draws no RNG, so each
/// forward pass runs on its own over the compute pool; the losses are
/// summed in data order.
fn mean_eval_loss<T: Clone + Send + 'static>(
    params: &Params,
    data: &[T],
    seed: u64,
    loss: impl Fn(&mut Fwd<'_>, &T) -> NodeId + Send + Sync + 'static,
) -> f32 {
    if data.is_empty() {
        return f32::INFINITY;
    }
    let params = Arc::new(params.share_weights());
    let loss = Arc::new(loss);
    let mut forwards = Ordered::new(Pool::global());
    for ex in data {
        let (params, loss, ex) = (Arc::clone(&params), Arc::clone(&loss), ex.clone());
        forwards.push(move || {
            forward_eval(&params, &mut StdRng::seed_from_u64(seed), |fwd| {
                let node = loss(fwd, &ex);
                fwd.graph.value(node).item()
            })
        });
    }
    let mut total = 0.0f64;
    while let Some(value) = forwards.pop() {
        total += value as f64;
    }
    (total / data.len() as f64) as f32
}

/// Mean validation loss of a seq2seq model (no gradients); infinite for
/// an empty set.
pub fn eval_seq2seq<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    params: &Params,
    pairs: &[EncodedPair],
    seed: u64,
) -> f32 {
    let model = model.clone();
    mean_eval_loss(params, pairs, seed, move |fwd, pair| {
        seq2seq_loss(&model, fwd, pair)
    })
}

/// A labelled classification example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSeq {
    /// Input token ids (`Q_i`).
    pub src: Vec<usize>,
    /// Class index (`template(Q_{i+1})`).
    pub label: usize,
}

/// Train a template classifier (encoder + head) on labelled sequences;
/// restores the best-validation weights before returning (with an empty
/// `val`, keeps the last epoch's weights).
///
/// Panics on a degenerate configuration; use [`try_train_classifier`]
/// for a typed error instead.
#[must_use]
pub fn train_classifier<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    head: &ClassifierHead,
    params: &mut Params,
    train: &[LabeledSeq],
    val: &[LabeledSeq],
    cfg: &TrainConfig,
) -> TrainReport {
    try_train_classifier(model, head, params, train, val, cfg)
        // qrec-lint: allow(no-panic-in-hot-path) -- documented panicking convenience wrapper; try_train_classifier is the typed path
        .unwrap_or_else(|e| panic!("train_classifier: {e}"))
}

/// Fallible variant of [`train_classifier`].
pub fn try_train_classifier<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    head: &ClassifierHead,
    params: &mut Params,
    train: &[LabeledSeq],
    val: &[LabeledSeq],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    run_training(
        params,
        train,
        !val.is_empty(),
        cfg,
        |ex| ex.src.len(),
        |fwd, ex| classifier_loss(model, head, fwd, ex),
        |params| eval_classifier(model, head, params, val, cfg.seed),
    )
}

/// Cross-entropy of one labelled sequence.
fn classifier_loss<M: Seq2Seq>(
    model: &M,
    head: &ClassifierHead,
    fwd: &mut Fwd<'_>,
    ex: &LabeledSeq,
) -> NodeId {
    let logits = classify_logits(model, head, fwd, &ex.src);
    fwd.graph.cross_entropy(logits, &[ex.label])
}

/// Mean validation loss of a classifier; infinite for an empty set.
pub fn eval_classifier<M: Seq2Seq + Clone + Send + Sync + 'static>(
    model: &M,
    head: &ClassifierHead,
    params: &Params,
    data: &[LabeledSeq],
    seed: u64,
) -> f32 {
    let (model, head) = (model.clone(), head.clone());
    mean_eval_loss(params, data, seed, move |fwd, ex| {
        classifier_loss(&model, &head, fwd, ex)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::{Transformer, TransformerConfig};
    use rand::SeedableRng;

    fn copy_pairs() -> Vec<EncodedPair> {
        // "Next query" = source with token+1 (mod small alphabet) — a
        // learnable deterministic mapping.
        let seqs: Vec<Vec<usize>> = vec![
            vec![1, 4, 5, 2],
            vec![1, 5, 6, 2],
            vec![1, 6, 7, 2],
            vec![1, 7, 4, 2],
            vec![1, 4, 6, 2],
            vec![1, 5, 7, 2],
        ];
        seqs.iter()
            .map(|s| {
                let tgt: Vec<usize> = s
                    .iter()
                    .map(|&t| {
                        if (4..=7).contains(&t) {
                            4 + (t - 3) % 4
                        } else {
                            t
                        }
                    })
                    .collect();
                EncodedPair {
                    src: s.clone(),
                    tgt,
                }
            })
            .collect()
    }

    #[test]
    fn seq2seq_training_converges_and_early_stops() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 3,
            patience: 4,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 2,
            ..TrainConfig::default()
        };
        let report = train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg);
        assert!(!report.epoch_losses.is_empty());
        let first = report.epoch_losses[0].1;
        let best = report.best_val_loss();
        assert!(best < first * 0.6, "val loss {first} -> {best}");
        // Restored weights really are the best ones: re-eval matches.
        let re = eval_seq2seq(&model, &params, &pairs, 2);
        assert!((re - best).abs() < 1e-4, "restored {re} vs best {best}");
    }

    #[test]
    fn classifier_training_converges() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let head = crate::classifier::ClassifierHead::new(&mut params, 16, 16, 2, 0.0, &mut rng);
        let data: Vec<LabeledSeq> = vec![
            LabeledSeq {
                src: vec![1, 4, 6, 2],
                label: 0,
            },
            LabeledSeq {
                src: vec![1, 4, 7, 2],
                label: 0,
            },
            LabeledSeq {
                src: vec![1, 5, 6, 2],
                label: 1,
            },
            LabeledSeq {
                src: vec![1, 5, 9, 2],
                label: 1,
            },
        ];
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 2,
            patience: 5,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 4,
            ..TrainConfig::default()
        };
        let report = train_classifier(&model, &head, &mut params, &data, &data, &cfg);
        assert!(report.best_val_loss() < report.epoch_losses[0].1);
        // And accuracy is perfect on this separable toy set.
        let mut rng = StdRng::seed_from_u64(0);
        for ex in &data {
            let ranked = crate::classifier::classify(&model, &head, &params, &ex.src, &mut rng);
            assert_eq!(ranked[0].0, ex.label);
        }
    }

    #[test]
    fn zero_epoch_config_is_a_typed_error() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        };
        let err = try_train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg).unwrap_err();
        assert_eq!(err, TrainError::NoEpochs);

        let head = crate::classifier::ClassifierHead::new(&mut params, 16, 16, 2, 0.0, &mut rng);
        let data = vec![LabeledSeq {
            src: vec![1, 4, 2],
            label: 0,
        }];
        let err = try_train_classifier(&model, &head, &mut params, &data, &data, &cfg).unwrap_err();
        assert_eq!(err, TrainError::NoEpochs);
    }

    #[test]
    fn empty_training_set_is_a_typed_error() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let err =
            try_train_seq2seq(&model, &mut params, &[], &[], &TrainConfig::default()).unwrap_err();
        assert_eq!(err, TrainError::NoTrainingData);
    }

    #[test]
    fn final_train_loss_tracks_last_epoch() {
        let report = TrainReport {
            epoch_losses: vec![(2.0, 2.1), (1.0, 1.2)],
            best_epoch: 1,
            train_time: Duration::from_millis(1),
            ..TrainReport::default()
        };
        assert_eq!(report.final_train_loss(), Some(1.0));
        let empty = TrainReport::default();
        assert_eq!(empty.final_train_loss(), None);
    }

    #[test]
    fn eval_on_empty_sets_is_infinite() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        assert!(eval_seq2seq(&model, &params, &[], 0).is_infinite());
    }

    fn weights(params: &Params) -> Vec<Vec<f32>> {
        params
            .named_tensors()
            .map(|(_, t)| t.data().to_vec())
            .collect()
    }

    /// Without validation data every epoch's loss is infinite; training
    /// must neither stop early nor roll back to the epoch-0 weights.
    #[test]
    fn seq2seq_without_validation_keeps_last_epoch() {
        let pairs = copy_pairs();
        let run = |epochs: usize| {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(1);
            let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
            let cfg = TrainConfig {
                epochs,
                batch_size: 2,
                patience: 1,
                seed: 3,
                ..TrainConfig::default()
            };
            let report = try_train_seq2seq(&model, &mut params, &pairs, &[], &cfg).unwrap();
            (report, weights(&params))
        };
        let (first, after_one) = run(1);
        assert_eq!(first.best_epoch, 0);
        let (report, after_three) = run(3);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(!report.early_stopped);
        assert_eq!(report.best_epoch, 2);
        assert!(report.epoch_losses.iter().all(|e| e.1.is_infinite()));
        assert_ne!(after_three, after_one, "epoch-0 weights were restored");
    }

    #[test]
    fn classifier_without_validation_keeps_last_epoch() {
        let data = vec![
            LabeledSeq {
                src: vec![1, 4, 6, 2],
                label: 0,
            },
            LabeledSeq {
                src: vec![1, 5, 6, 2],
                label: 1,
            },
        ];
        let run = |epochs: usize| {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(3);
            let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
            let head =
                crate::classifier::ClassifierHead::new(&mut params, 16, 16, 2, 0.0, &mut rng);
            let cfg = TrainConfig {
                epochs,
                batch_size: 2,
                patience: 1,
                seed: 4,
                ..TrainConfig::default()
            };
            let report =
                try_train_classifier(&model, &head, &mut params, &data, &[], &cfg).unwrap();
            (report, weights(&params))
        };
        let (_, after_one) = run(1);
        let (report, after_three) = run(3);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(!report.early_stopped);
        assert_eq!(report.best_epoch, 2);
        assert_ne!(after_three, after_one, "epoch-0 weights were restored");
    }

    #[test]
    fn report_tracks_epochs() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Transformer::new(&mut params, TransformerConfig::test(12), &mut rng);
        let pairs = copy_pairs();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            patience: 0,
            adam: AdamConfig::default(),
            seed: 1,
            ..TrainConfig::default()
        };
        let report = train_seq2seq(&model, &mut params, &pairs, &pairs, &cfg);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(!report.early_stopped);
        assert!(report.train_time.as_nanos() > 0);
        // Telemetry rows track the loss pairs one-to-one.
        assert_eq!(report.epochs.len(), 3);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!((e.train_loss, e.val_loss), report.epoch_losses[i]);
            assert!(e.grad_norm > 0.0, "gradient norm should be captured");
            assert!(e.tokens_per_sec > 0.0, "throughput should be captured");
            assert!(e.seconds > 0.0);
        }
    }

    #[test]
    fn reports_without_epoch_telemetry_still_deserialize() {
        // A report serialized before the `epochs` field existed.
        let old = r#"{
            "epoch_losses": [[2.0, 2.5], [1.0, 1.5]],
            "best_epoch": 1,
            "train_time": {"secs": 1, "nanos": 0},
            "early_stopped": false
        }"#;
        let report: TrainReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.best_epoch, 1);
        assert!(report.epochs.is_empty());
    }
}
