//! The offline workload: generate, split, train and evaluate in this
//! process, as the experiment drivers do.

use qrec_core::{FragmentPredictor, PerKind, Recommender};
use qrec_nn::Strategy;
use qrec_perfbench::parity;
use qrec_perfbench::setup::{self, Counters, Spec, TOP_N};
use qrec_perfbench::spans::{self, Tracer};
use qrec_perfbench::stats;
use qrec_sql::FragmentSet;
use qrec_workload::{OwnedPair, QueryRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Instant;

use crate::serving::{LayerTimes, REPLAY_PASSES};
use crate::{eval_passes, model_note, ratio, replay, wire, Args, Outcome};

/// Generate-and-split repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Times each `predict_n` of the wrapped recommender.
struct TimedPredictor<'a> {
    rec: &'a mut Recommender,
    times_ms: Vec<f64>,
}

impl FragmentPredictor for TimedPredictor<'_> {
    fn name(&self) -> String {
        self.rec.name()
    }

    fn predict_set(&mut self, q: &QueryRecord) -> FragmentSet {
        self.rec.predict_set(q)
    }

    fn predict_n(&mut self, q: &QueryRecord, n: usize) -> PerKind<Vec<String>> {
        let t = Instant::now();
        let out = self.rec.predict_n(q, n);
        self.times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// One decode pass over `pairs`: decode then rank each pair's current
/// query, each in its own span.
fn decode_pass(rec: &Recommender, pairs: &[OwnedPair], tracer: &mut Tracer) -> f64 {
    let mut rng = StdRng::seed_from_u64(0);
    let strategy = Strategy::Beam { width: 5 };
    let t = Instant::now();
    for (i, p) in pairs.iter().enumerate() {
        let id = i as u32;
        tracer.begin("request", id);
        let hyps = tracer.span("nn.decode", id, || {
            rec.decode_candidates_with(&p.current, strategy, &mut rng)
        });
        let top = tracer.span("core.rank", id, || {
            replay::rank(rec, &hyps).map(|_, r| r.iter().take(TOP_N).cloned().collect::<Vec<_>>())
        });
        std::hint::black_box(top);
        tracer.end();
    }
    t.elapsed().as_secs_f64()
}

/// Layer metrics of the offline pipeline. The serving layers read 0: the
/// offline workload starts no server.
fn trace_layers(out: &mut Outcome, rec: &Recommender, test: &[OwnedPair]) -> Result<(), String> {
    let mut tracer = Tracer::with_capacity(test.len());
    for (i, p) in test.iter().enumerate() {
        let parsed = tracer.span("sql.parse", i as u32, || QueryRecord::new(&p.current.sql));
        std::hint::black_box(parsed.map_err(|e| e.to_string())?);
    }
    let parse = LayerTimes {
        by_layer: spans::self_us_by_request(tracer.spans()),
        requests: test.len(),
    };
    let steps_before = qrec_nn::decode::counters().steps;
    let gemm_before = Counters::read();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for pass in 0..REPLAY_PASSES {
        if pass % 2 == 1 {
            tracer = Tracer::with_capacity(test.len() * 3);
            traced_s += decode_pass(rec, test, &mut tracer);
        } else {
            plain_s += decode_pass(rec, test, &mut Tracer::disabled());
        }
    }
    let passes = REPLAY_PASSES as u64;
    let steps = (qrec_nn::decode::counters().steps - steps_before) / passes;
    let gemm = Counters::read().since(&gemm_before).gemm_calls() / passes;
    let layers = LayerTimes {
        by_layer: spans::self_us_by_request(tracer.spans()),
        requests: test.len(),
    };
    let n = test.len();
    let (v, k) = parse.p50("sql.parse");
    out.set("sql.parse_us", v, k);
    let (v, k) = layers.p50("nn.decode");
    out.set("nn.decode.miss_us", v, k);
    let (v, k) = layers.p50("core.rank");
    out.set("core.rank_us", v, k);
    out.set("nn.decode.steps_per_miss", ratio(steps as f64, n as f64), n);
    out.set(
        "tensor.gemm.calls_per_miss",
        ratio(gemm as f64, n as f64),
        n,
    );
    out.set("trace.overhead", ratio(plain_s, traced_s), n);
    for name in [
        "serve.framing_us",
        "serve.protocol.parse_us",
        "serve.protocol.encode_us",
        "serve.session.push_us",
        "store.wal_appends_per_req",
        "serve.cache.hit_ratio",
        "serve.cache.lookup_us",
        "serve.batch.size_mean",
        "serve.batch.wait_us",
        "nn.decode.enc_cache_hit_ratio",
        "serve.residual_us",
        "loadgen.late_ms_p99",
        "serve.boot_s",
    ] {
        out.set(name, 0.0, 0);
    }
    out.note(
        "trace_detail",
        json!({"untraced_pass_s": plain_s, "traced_pass_s": traced_s}),
    );
    Ok(())
}

/// One offline workload run.
pub(crate) fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let profile = spec.profile.with_sessions(setup::train_sessions(spec));
    let (mut setup_s, mut generate_s, mut split_s) = (vec![], vec![], vec![]);
    let mut data = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (workload, _, split, g, s) = setup::generate_and_split(&profile, setup::LOG_SEED);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(g);
        split_s.push(s);
        data = Some((workload, split));
    }
    let (workload, split) = data.ok_or("no set-up ran")?;
    let test = &split.test;
    if test.is_empty() {
        return Err("the test split is empty".into());
    }

    // Measured: train for the fixed epoch count, then evaluate the test
    // split in passes until the run's seconds are used.
    let start = Instant::now();
    let before = Counters::read();
    let (mut rec, report) = Recommender::try_train(&split, &workload, setup::offline_config())
        .map_err(|e| format!("training failed: {e}"))?;
    let train_s = start.elapsed().as_secs_f64();
    let counters = Counters::read().since(&before);
    let epochs = report.epoch_losses.len();
    out.note("model", model_note(&rec, epochs));
    let remaining = if args.trace {
        0.0
    } else {
        args.seconds - start.elapsed().as_secs_f64()
    };
    let mut timed = TimedPredictor {
        rec: &mut rec,
        times_ms: Vec::new(),
    };
    let eval = eval_passes(&mut timed, test, remaining);
    let lat = stats::summarize(&mut timed.times_ms);
    let evaluated = eval.pass_s.len() * test.len();
    let eval_s = eval.mean_pass_s();
    out.attempted = evaluated as u64;
    out.failed = eval.differing_pairs() as u64;
    out.check(eval.differing == 0, || eval.describe_differing());
    let eval_rate = ratio(test.len() as f64, eval_s);
    let epoch_s: f64 = report.epochs.iter().map(|e| f64::from(e.seconds)).sum();

    out.set("setup_s", stats::median(&setup_s), setup_s.len());
    out.set("throughput_rps", eval_rate, evaluated);
    out.set("latency_p50_ms", lat.p50, lat.n);
    out.set("latency_p90_ms", lat.p90, lat.n);
    out.set("latency_p99_ms", lat.p99, lat.n);
    out.set("fragment_f1", parity::micro_f1(&eval.first), test.len());
    out.set("server_rss_mb", wire::vm_hwm_mb("/proc/self/status")?, 1);
    out.set(
        "train_pairs_per_s",
        ratio((split.train.len() * epochs) as f64, epoch_s),
        epochs,
    );
    out.set("eval_pairs_per_s", eval_rate, evaluated);
    out.set("val_loss", f64::from(report.best_val_loss()), epochs);
    let tokens: usize = workload
        .sessions
        .iter()
        .flat_map(|s| &s.queries)
        .map(|q| q.tokens.len())
        .sum();
    out.note(
        "workload_properties",
        json!({
            "profile": spec.profile.name(),
            "load": "in process: train, then evaluate the test split in passes",
            "sessions": workload.sessions.len(),
            "train_pairs": split.train.len(),
            "test_pairs": test.len(),
            "eval_passes": eval.pass_s.len(),
            "mean_tokens_per_query": tokens as f64 / workload.query_count().max(1) as f64,
            "note": "no server: throughput and latency are the evaluation's recommendations, server_rss_mb is this process",
        }),
    );

    if args.trace {
        trace_layers(&mut out, &rec, test)?;
        out.set(
            "workload.generate_s",
            stats::median(&generate_s),
            generate_s.len(),
        );
        out.set("workload.split_s", stats::median(&split_s), split_s.len());
        out.set("nn.train_s", train_s, 1);
        out.set(
            "nn.train.tokens_per_s",
            ratio(counters.train_tokens as f64, train_s),
            1,
        );
        out.set(
            "tensor.gemm.calls_per_epoch",
            ratio(counters.gemm_calls() as f64, epochs as f64),
            epochs,
        );
        out.set(
            "core.eval.us_per_pair",
            ratio(eval_s * 1e6, test.len() as f64),
            evaluated,
        );
    }
    Ok(out)
}
