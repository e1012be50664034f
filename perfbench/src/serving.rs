//! The serving workloads: set-up, the measured load against the server
//! process, the checks on what it answered, and the traced run.

use qrec_core::{eval_n_fragments, FragmentPredictor, PerKind, Recommender, SetMetrics};
use qrec_perfbench::parity;
use qrec_perfbench::setup::{self, Load, Spec, Stream, Trained, TOP_N};
use qrec_perfbench::spans::{self, Tracer};
use qrec_perfbench::stats::{self, Schedule, Sliced, Summary};
use qrec_serve::{MetricsSnapshot, ModelZoo, Request, ServerConfig, StatsReply};
use qrec_sql::FragmentSet;
use qrec_workload::{OwnedPair, QueryRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

use crate::wire::{self, ConnResult, ServerProc};
use crate::{eval_passes, model_note, nproc, ratio, replay, Args, Outcome, MIN_EVAL_S};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests the traced run replays in process (each pass).
const REPLAY_CAP: usize = 1500;
/// In-process replay passes of the traced run, untraced and traced in
/// turn, so neither side always runs first on a cold process.
pub(crate) const REPLAY_PASSES: usize = 4;
/// Fewest replies per time slice, so each slice's p99 has at least ten
/// samples beyond it.
const MIN_SLICE_SAMPLES: usize = 1000;
/// Most time slices a run's replies are cut into.
const MAX_SLICES: usize = 8;
/// Layers on a RECOMMEND's path, in the order the server runs them. The
/// residual subtracts their self times; `sql.parse` is left out because
/// it runs again inside `serve.session.push`.
const PATH_LAYERS: [&str; 7] = [
    "serve.framing",
    "serve.protocol.parse",
    "serve.session.push",
    "serve.cache",
    "nn.decode",
    "core.rank",
    "serve.protocol.encode",
];

/// What set-up left running, and how long its phases took.
struct SetUp {
    trained: Trained,
    server: ServerProc,
    stream: Stream,
    lines: Vec<Vec<u8>>,
    setup_s: Vec<f64>,
    boot_s: Vec<f64>,
    generate_s: Vec<f64>,
    split_s: Vec<f64>,
    train_s: Vec<f64>,
    /// Wall time of every epoch of every set-up.
    epoch_s: Vec<f64>,
}

/// The wire line of every request of the stream.
fn request_lines(stream: &Stream) -> Result<Vec<Vec<u8>>, String> {
    stream
        .requests
        .iter()
        .map(|r| {
            let req = Request::recommend(&r.session, &r.record.sql, TOP_N);
            let mut line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            line.push('\n');
            Ok(line.into_bytes())
        })
        .collect()
}

/// Set up [`SETUPS`] times: generate, split, train, save the model, boot
/// a server on it, and (`sdss-hot`) run the warm-up lap. Only the last
/// server is kept. The request stream is built once, untimed: it is the
/// run's input, not set-up work.
fn set_up(args: &Args, spec: &Spec, scratch: &Path, out: &mut Outcome) -> Result<SetUp, String> {
    let profile = spec.profile.with_sessions(setup::train_sessions(spec));
    let (mut setup_s, mut boot_s, mut generate_s, mut split_s, mut train_s, mut epoch_s) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut built: Option<(Stream, Vec<Vec<u8>>)> = None;
    let mut kept = None;
    for rep in 0..SETUPS {
        let t = Instant::now();
        let trained = setup::train(&profile, setup::LOG_SEED, setup::serving_config())?;
        let mut excluded = 0.0;
        if built.is_none() {
            let ts = Instant::now();
            let stream = setup::serving_stream(spec, &trained.catalog, args.seed, args.seconds);
            let lines = request_lines(&stream)?;
            excluded = ts.elapsed().as_secs_f64();
            out.note("stream_build_s", json!(excluded));
            built = Some((stream, lines));
        }
        let (_, lines) = built.as_ref().ok_or("stream missing")?;
        let model_dir = scratch.join(format!("model-{rep}"));
        ModelZoo::open(&model_dir)
            .and_then(|z| z.save(1, &trained.rec))
            .map_err(|e| format!("saving the model: {e}"))?;
        let data_dir = spec.durable.then(|| scratch.join(format!("data-{rep}")));
        let tb = Instant::now();
        let server = ServerProc::spawn(&model_dir, data_dir.as_deref())?;
        boot_s.push(tb.elapsed().as_secs_f64());
        if spec.hot {
            wire::warm_up(server.addr, lines)?;
        }
        setup_s.push(t.elapsed().as_secs_f64() - excluded);
        generate_s.push(trained.generate_s);
        split_s.push(trained.split_s);
        train_s.push(trained.train_s);
        epoch_s.extend(trained.report.epochs.iter().map(|e| f64::from(e.seconds)));
        if rep + 1 < SETUPS {
            server.shutdown()?;
        } else {
            kept = Some((trained, server));
        }
    }
    let (trained, server) = kept.ok_or("no set-up ran")?;
    let (stream, lines) = built.ok_or("stream missing")?;
    Ok(SetUp {
        trained,
        server,
        stream,
        lines,
        setup_s,
        boot_s,
        generate_s,
        split_s,
        train_s,
        epoch_s,
    })
}

/// The measured phase as the client and the server saw it.
struct Measured {
    results: Vec<ConnResult>,
    before: StatsReply,
    after: StatsReply,
    dump_before: String,
    dump_after: String,
    rss_mb: f64,
    plans: Vec<Vec<u32>>,
}

impl Measured {
    /// Change of a STATS counter over the measured phase.
    fn delta(&self, f: fn(&MetricsSnapshot) -> u64) -> u64 {
        f(&self.after.metrics).saturating_sub(f(&self.before.metrics))
    }

    /// Change of a DUMP value over the measured phase.
    fn dump_delta(&self, name: &str) -> f64 {
        dump_value(&self.dump_after, name) - dump_value(&self.dump_before, name)
    }

    fn sum(&self, f: fn(&ConnResult) -> u64) -> u64 {
        self.results.iter().map(f).sum()
    }
}

fn dump_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Drive the load for `--seconds` on `conns` connections, with STATS and
/// DUMP read before and after, then stop the server.
fn measure(
    args: &Args,
    load: Load,
    conns: usize,
    server: ServerProc,
    stream: &Stream,
    lines: &[Vec<u8>],
    out: &mut Outcome,
) -> Result<Measured, String> {
    let mut ctl = server.control()?;
    let before = ctl.stats().map_err(|e| format!("STATS: {e}"))?;
    let dump_before = ctl.dump().map_err(|e| format!("DUMP: {e}"))?;
    let plans: Vec<Vec<u32>> = (0..conns).map(|c| wire::plan(stream, c, conns)).collect();
    // Connect before the clock starts; connections stay open until the
    // second STATS has counted them.
    let mut socks = (0..conns)
        .map(|_| wire::Conn::open(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let cpu_before = (server.cpu_seconds()?, wire::cpu_seconds("/proc/self/stat")?);
    let t0 = Instant::now();
    let seconds = args.seconds;
    let results = match load {
        Load::Open { rate } => wire::drive_open(
            &mut socks,
            stream,
            lines,
            &plans,
            Schedule { rate, conns },
            t0,
            seconds,
        )?,
        Load::Closed => std::thread::scope(|sc| {
            let drive = |sock: &mut wire::Conn, plan: &[u32]| {
                wire::drive_closed(sock, stream, lines, plan, t0, seconds)
            };
            // The calling thread drives the first connection.
            let mut work = socks.iter_mut().zip(&plans);
            let first = work.next();
            let handles: Vec<_> = work
                .map(|(sock, plan)| sc.spawn(move || drive(sock, plan)))
                .collect();
            let mut results = vec![match first {
                Some((sock, plan)) => drive(sock, plan),
                None => Err("no connections".into()),
            }];
            for h in handles {
                results.push(
                    h.join()
                        .unwrap_or_else(|_| Err("load thread panicked".into())),
                );
            }
            results
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?,
    };
    let dump_after = ctl.dump().map_err(|e| format!("DUMP: {e}"))?;
    let after = ctl.stats().map_err(|e| format!("STATS: {e}"))?;
    out.note(
        "cpu_during_load",
        json!({
            "wall_s": t0.elapsed().as_secs_f64(),
            "server_cpu_s": server.cpu_seconds()? - cpu_before.0,
            "client_cpu_s": wire::cpu_seconds("/proc/self/stat")? - cpu_before.1,
        }),
    );
    let rss_mb = server.peak_rss_mb()?;
    drop(socks);
    drop(ctl);
    server.shutdown()?;
    Ok(Measured {
        results,
        before,
        after,
        dump_before,
        dump_after,
        rss_mb,
        plans,
    })
}

/// The client's counts must equal the server's STATS deltas.
fn check_accounting(out: &mut Outcome, m: &Measured, conns: usize) {
    let sent = m.sum(|r| r.sent);
    let ok_replies = m.sum(|r| r.ok_replies);
    let error_replies = m.sum(|r| r.error_replies);
    let d_requests = m.delta(|s| s.requests);
    let d_recommends = m.delta(|s| s.recommends);
    let d_served = m.delta(|s| s.cache_hits) + m.delta(|s| s.cache_misses);
    let d_refused = m.delta(|s| s.errors) + m.delta(|s| s.overloaded);
    let conns_open = m.after.metrics.frontend.conns_open;
    out.check(d_recommends == sent, || {
        format!("client sent {sent} RECOMMENDs, server counted {d_recommends}")
    });
    // Between the two STATS snapshots the control connection sent two
    // DUMPs and the second STATS, which counts itself.
    out.check(d_requests == sent + 3, || {
        format!(
            "client sent {} requests, server counted {d_requests}",
            sent + 3
        )
    });
    out.check(d_served == ok_replies, || {
        format!("client got {ok_replies} ok replies, server served {d_served}")
    });
    out.check(d_refused == error_replies, || {
        format!(
            "client got {error_replies} error replies, server counted {d_refused} errors + overloaded"
        )
    });
    out.check(conns_open == conns as u64 + 1, || {
        format!(
            "server had {conns_open} connections open, the benchmark {} ({conns} load + 1 control)",
            conns + 1
        )
    });
    out.note(
        "accounting",
        json!({
            "client": {"sent": sent, "ok_replies": ok_replies, "error_replies": error_replies,
                       "unanswered": m.sum(|r| r.unanswered), "connections": conns + 1},
            "server": {"requests": d_requests, "recommends": d_recommends,
                       "cache_hits_plus_misses": d_served, "errors_plus_overloaded": d_refused,
                       "conns_open": conns_open},
        }),
    );
}

/// The offline `Recommender` answer for each window: `predict_n`, the
/// N-fragments prediction of the evaluation harness, on the window's
/// query, computed on `threads` threads.
fn reference_answers(
    rec: &Recommender,
    stream: &Stream,
    windows: &[u32],
    threads: usize,
) -> HashMap<u32, PerKind<Vec<String>>> {
    let chunk = windows.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = windows
            .chunks(chunk)
            .map(|ws| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0);
                    ws.iter()
                        .map(|&w| {
                            let req = &stream.requests[stream.window_request[w as usize] as usize];
                            (w, rec.predict_n_with(&req.record, TOP_N, &mut rng))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Every reply already equals the window's first reply on its
/// connection (checked as they arrived); each first reply must equal the
/// offline answer. Returns the replies that did not.
fn check_parity(
    out: &mut Outcome,
    m: &Measured,
    reference: &HashMap<u32, PerKind<Vec<String>>>,
) -> u64 {
    let mut offline_mismatched = 0u64;
    for r in &m.results {
        for (w, (reply, count)) in &r.first_reply {
            if let Some(mm) = parity::compare(reply, &reference[w]) {
                offline_mismatched += count;
                if out.problems.len() < 20 {
                    out.problems.push(format!(
                        "window {w}: served reply differs from the offline answer at {:?} rank {}",
                        mm.kind, mm.rank
                    ));
                }
            }
        }
    }
    let mismatched = m.sum(|r| r.mismatched) + offline_mismatched;
    out.check(mismatched == 0, || {
        format!("{mismatched} served replies differ from the offline answers")
    });
    offline_mismatched
}

/// Answers `predict_n` from precomputed offline answers, so
/// `eval_n_fragments` can score the same pairs the server answered.
struct ReferencePredictor<'a> {
    by_window: HashMap<&'a str, &'a PerKind<Vec<String>>>,
}

impl FragmentPredictor for ReferencePredictor<'_> {
    fn name(&self) -> String {
        "offline reference".into()
    }

    fn predict_set(&mut self, _q: &QueryRecord) -> FragmentSet {
        FragmentSet::default()
    }

    fn predict_n(&mut self, q: &QueryRecord, n: usize) -> PerKind<Vec<String>> {
        self.by_window
            .get(setup::window_key(q).as_str())
            .map(|r| r.map(|_, v| v.iter().take(n).cloned().collect()))
            .unwrap_or_default()
    }
}

/// Top-5 micro-F1 of every served `(Q_i, Q_{i+1})` pair, each counted
/// once, checked against `eval_n_fragments` over the same pairs on the
/// offline answers. Returns the served F1 and the pair count.
fn served_quality(
    out: &mut Outcome,
    stream: &Stream,
    m: &Measured,
    reference: &HashMap<u32, PerKind<Vec<String>>>,
) -> (f64, usize) {
    let mut seen = vec![false; stream.requests.len()];
    let mut acc: PerKind<SetMetrics> = PerKind::default();
    let mut pairs = Vec::new();
    for r in &m.results {
        for &req in &r.served {
            let q = &stream.requests[req as usize];
            if std::mem::replace(&mut seen[req as usize], true) {
                continue;
            }
            if let Some(next) = q.next {
                let next = &stream.requests[next as usize].record;
                parity::record_pair(
                    &mut acc,
                    &r.first_reply[&q.window].0,
                    &next.fragments,
                    TOP_N,
                );
                pairs.push(OwnedPair {
                    current: q.record.clone(),
                    next: next.clone(),
                    session_id: 0,
                    dataset: 0,
                });
            }
        }
    }
    let served_f1 = parity::micro_f1(&acc);
    let by_window = reference
        .iter()
        .map(|(w, ans)| (stream.windows[*w as usize].as_str(), ans))
        .collect();
    let offline_f1 = parity::micro_f1(&eval_n_fragments(
        &mut ReferencePredictor { by_window },
        &pairs,
        TOP_N,
    ));
    out.check(served_f1 == offline_f1, || {
        format!("served fragment F1 {served_f1} != offline eval_n_fragments F1 {offline_f1}")
    });
    out.note(
        "quality",
        json!({"served_fragment_f1": served_f1, "offline_fragment_f1": offline_f1, "pairs": pairs.len()}),
    );
    (served_f1, pairs.len())
}

/// Per-layer self-time statistics of a traced replay.
pub(crate) struct LayerTimes {
    /// Layer → self time per request that ran it, µs.
    pub(crate) by_layer: BTreeMap<&'static str, BTreeMap<u32, f64>>,
    pub(crate) requests: usize,
}

impl LayerTimes {
    /// Median self time over the requests that ran the layer, and how
    /// many did.
    pub(crate) fn p50(&self, layer: &str) -> (f64, usize) {
        match self.by_layer.get(layer) {
            Some(m) => {
                let v: Vec<f64> = m.values().copied().collect();
                (stats::median(&v), v.len())
            }
            None => (0.0, 0),
        }
    }

    /// Median over every replayed request, counting 0 where the layer
    /// did not run: the layer's share of the median request.
    fn p50_all(&self, layer: &str) -> f64 {
        let mut v = vec![0.0; self.requests];
        if let Some(m) = self.by_layer.get(layer) {
            for (&r, &t) in m {
                v[r as usize] = t;
            }
        }
        stats::median(&v)
    }

    fn total(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).map_or(0.0, |m| m.values().sum())
    }
}

/// Server-side layer metrics from the STATS and DUMP deltas. Returns the
/// mean batch wait, µs.
fn server_layers(out: &mut Outcome, m: &Measured, load: Load, late: &Summary) -> f64 {
    let misses = m.delta(|s| s.cache_misses);
    let served = m.delta(|s| s.cache_hits) + misses;
    let recommends = m.delta(|s| s.recommends);
    out.set(
        "store.wal_appends_per_req",
        ratio(m.delta(|s| s.store.wal_appends) as f64, recommends as f64),
        recommends as usize,
    );
    out.set(
        "serve.cache.hit_ratio",
        ratio(m.delta(|s| s.cache_hits) as f64, served as f64),
        served as usize,
    );
    let batches = m.delta(|s| s.batches);
    out.set(
        "serve.batch.size_mean",
        ratio(m.delta(|s| s.batched_jobs) as f64, batches as f64),
        batches as usize,
    );
    let wait_n = m.dump_delta("qrec_serve_stage_batch_wait_us_count");
    let batch_wait_us = ratio(m.dump_delta("qrec_serve_stage_batch_wait_us_sum"), wait_n);
    out.set("serve.batch.wait_us", batch_wait_us, wait_n as usize);
    out.set(
        "nn.decode.steps_per_miss",
        ratio(m.delta(|s| s.decode.steps) as f64, misses as f64),
        misses as usize,
    );
    let enc_hits = m.delta(|s| s.decode.enc_cache_hits);
    let enc_lookups = enc_hits + m.delta(|s| s.decode.enc_cache_misses);
    out.set(
        "nn.decode.enc_cache_hit_ratio",
        ratio(enc_hits as f64, enc_lookups as f64),
        enc_lookups as usize,
    );
    let gemm = [
        m.dump_delta("qrec_tensor_gemm_naive"),
        m.dump_delta("qrec_tensor_gemm_blocked"),
        m.dump_delta("qrec_tensor_gemm_parallel"),
    ];
    out.set(
        "tensor.gemm.calls_per_miss",
        ratio(gemm.iter().sum(), misses as f64),
        misses as usize,
    );
    out.note(
        "server_gemm_calls",
        json!({"naive": gemm[0], "blocked": gemm[1], "parallel": gemm[2]}),
    );
    let late_p99 = match load {
        Load::Open { .. } => late.p99,
        Load::Closed => 0.0,
    };
    out.set("loadgen.late_ms_p99", late_p99, late.n);
    batch_wait_us
}

/// In-process layer metrics: the first [`REPLAY_CAP`] requests the run
/// sent, in send order, through the same layer calls the server makes,
/// untraced and traced in turn. Replay answers are parity-checked too.
#[allow(clippy::too_many_arguments)] // the traced run's whole context
fn replay_layers(
    out: &mut Outcome,
    spec: &Spec,
    scratch: &Path,
    rec: &Recommender,
    stream: &Stream,
    lines: &[Vec<u8>],
    order: &[u32],
    reference: &HashMap<u32, PerKind<Vec<String>>>,
    client: &Sliced,
    batch_wait_us: f64,
) -> Result<(), String> {
    // sdss-hot's server had run the warm-up lap; so does the replay.
    let warm: Vec<u32> = if spec.hot {
        (0..stream.requests.len() as u32).collect()
    } else {
        Vec::new()
    };
    let mut tracer = Tracer::disabled();
    let (mut plain_s, mut traced_s, mut hits) = (0.0, 0.0, 0);
    let mut mismatched = 0u64;
    for pass in 0..REPLAY_PASSES {
        let traced = pass % 2 == 1;
        let mut t = if traced {
            Tracer::with_capacity(order.len() * 12)
        } else {
            Tracer::disabled()
        };
        let dir = spec.durable.then(|| scratch.join(format!("replay-{pass}")));
        let r = replay::replay(rec, lines, &warm, order, dir.as_deref(), &mut t)?;
        for (ans, &req) in r.answers.iter().zip(order) {
            let w = stream.requests[req as usize].window;
            if parity::compare(ans, &reference[&w]).is_some() {
                mismatched += 1;
            }
        }
        if traced {
            traced_s += r.elapsed_s;
            hits = r.hits;
            tracer = t;
        } else {
            plain_s += r.elapsed_s;
        }
    }
    out.attempted += (REPLAY_PASSES * order.len()) as u64;
    out.failed += mismatched;
    out.check(mismatched == 0, || {
        format!("{mismatched} in-process replay answers differ from the offline answers")
    });
    let layers = LayerTimes {
        by_layer: spans::self_us_by_request(tracer.spans()),
        requests: order.len(),
    };
    for (metric, layer) in [
        ("sql.parse_us", "sql.parse"),
        ("serve.framing_us", "serve.framing"),
        ("serve.protocol.parse_us", "serve.protocol.parse"),
        ("serve.protocol.encode_us", "serve.protocol.encode"),
        ("serve.session.push_us", "serve.session.push"),
        ("serve.cache.lookup_us", "serve.cache"),
        ("nn.decode.miss_us", "nn.decode"),
        ("core.rank_us", "core.rank"),
    ] {
        let (v, n) = layers.p50(layer);
        out.set(metric, v, n);
    }
    let client_p50_us = client.p50 * 1e3;
    let attributed = PATH_LAYERS.iter().map(|l| layers.p50_all(l)).sum::<f64>() + batch_wait_us;
    out.set("serve.residual_us", client_p50_us - attributed, client.n);
    out.set("trace.overhead", ratio(plain_s, traced_s), order.len());
    let totals: Map = PATH_LAYERS
        .iter()
        .map(|l| (l.to_string(), json!(layers.total(l) / 1e3)))
        .collect();
    let largest = PATH_LAYERS
        .iter()
        .max_by(|a, b| layers.total(a).total_cmp(&layers.total(b)))
        .copied()
        .unwrap_or("none");
    out.note(
        "trace_detail",
        json!({
            "replayed_requests": order.len(),
            "replay_cache_hit_share": ratio(hits as f64, order.len() as f64),
            "self_time_total_ms": Value::Object(totals),
            "largest_layer": largest,
            "client_p50_us": client_p50_us,
            "attributed_p50_us": attributed,
            "untraced_replay_s": plain_s,
            "traced_replay_s": traced_s,
        }),
    );
    Ok(())
}

/// One serving workload run.
pub(crate) fn run(args: &Args, spec: &Spec, load: Load, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let conns = nproc();
    let SetUp {
        trained,
        server,
        stream,
        lines,
        setup_s,
        boot_s,
        generate_s,
        split_s,
        train_s,
        epoch_s,
    } = set_up(args, spec, scratch, &mut out)?;
    let epochs_run = trained.report.epoch_losses.len();
    out.note("model", model_note(&trained.rec, epochs_run));
    let d = ServerConfig::default();
    out.note(
        "server",
        json!({
            "process": "separate (this binary in serve-child mode, qrec_serve::Server)",
            "frontend": format!("{:?}", d.frontend),
            "decode_workers": d.engine.workers,
            "queue_cap": d.engine.queue_cap,
            "max_batch": d.engine.max_batch,
            "strategy": format!("{:?}", d.engine.strategy),
            "cache_capacity": d.cache_capacity,
            "session_window": d.session_window,
            "sessions": if spec.durable { format!("durable, fsync {:?}", d.store.fsync) } else { "in memory".to_string() },
            "quant": format!("{:?}", d.quant),
        }),
    );

    let m = measure(args, load, conns, server, &stream, &lines, &mut out)?;
    check_accounting(&mut out, &m, conns);

    // Offline answers for every window the server answered or the
    // traced replay will see.
    let mut sends: Vec<(f64, u32)> = m
        .results
        .iter()
        .flat_map(|r| r.sends.iter().copied())
        .collect();
    sends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let replay_order: Vec<u32> = sends
        .into_iter()
        .take(if args.trace { REPLAY_CAP } else { 0 })
        .map(|(_, r)| r)
        .collect();
    let mut windows: BTreeSet<u32> = m
        .results
        .iter()
        .flat_map(|r| r.first_reply.keys().copied())
        .collect();
    windows.extend(
        replay_order
            .iter()
            .map(|&r| stream.requests[r as usize].window),
    );
    let windows: Vec<u32> = windows.into_iter().collect();
    let reference = reference_answers(&trained.rec, &stream, &windows, conns);
    let offline_mismatched = check_parity(&mut out, &m, &reference);
    let (ok_replies, error_replies, unanswered) = (
        m.sum(|r| r.ok_replies),
        m.sum(|r| r.error_replies),
        m.sum(|r| r.unanswered),
    );
    out.attempted = ok_replies + error_replies + unanswered;
    out.failed = m.sum(ConnResult::failed) + offline_mismatched;
    let (served_f1, f1_pairs) = served_quality(&mut out, &stream, &m, &reference);

    // End-to-end metrics.
    let timed: Vec<(f64, f64)> = m
        .results
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let elapsed = m.results.iter().map(|r| r.last_reply_s).fold(0.0, f64::max);
    let lat = stats::sliced(&timed, elapsed, MIN_SLICE_SAMPLES, MAX_SLICES);
    let mut late: Vec<f64> = m
        .results
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let late = stats::summarize(&mut late);
    if let Load::Open { rate } = load {
        let achieved = ratio(ok_replies as f64, elapsed);
        out.check((achieved - rate).abs() <= 0.02 * rate, || {
            format!("achieved {achieved:.1} req/s against an offered {rate} req/s")
        });
        out.note(
            "open_loop",
            json!({"offered_rps": rate, "achieved_rps": achieved,
                   "p99_limit_ms": setup::OPEN_P99_LIMIT_MS,
                   "meets_limit": lat.p99 <= setup::OPEN_P99_LIMIT_MS,
                   "late_ms_p50": late.p50, "late_ms_p99": late.p99}),
        );
    }
    let mut rec = trained.rec;
    let test = &trained.split.test;
    let eval = eval_passes(&mut rec, test, MIN_EVAL_S);
    out.failed += eval.differing_pairs() as u64;
    out.check(eval.differing == 0, || eval.describe_differing());
    let eval_s = eval.mean_pass_s();
    out.note(
        "eval_test_split",
        json!({"pairs": test.len(), "fragment_f1": parity::micro_f1(&eval.first),
               "pass_s": eval.pass_s, "train_epoch_s": epoch_s}),
    );

    out.set("setup_s", stats::median(&setup_s), setup_s.len());
    out.set("throughput_rps", ratio(ok_replies as f64, elapsed), lat.n);
    out.set("latency_p50_ms", lat.p50, lat.n);
    out.set("latency_p99_ms", lat.p99, lat.n);
    out.set("latency_p90_ms", lat.p90, lat.n);
    out.set("fragment_f1", served_f1, f1_pairs);
    out.set("server_rss_mb", m.rss_mb, 1);
    let epoch_mean_s = epoch_s.iter().sum::<f64>() / epoch_s.len().max(1) as f64;
    out.set(
        "train_pairs_per_s",
        ratio(trained.split.train.len() as f64, epoch_mean_s),
        epoch_s.len(),
    );
    out.set(
        "eval_pairs_per_s",
        ratio(test.len() as f64, eval_s),
        test.len(),
    );
    out.set(
        "val_loss",
        f64::from(trained.report.best_val_loss()),
        epochs_run,
    );

    let d_hits = m.delta(|s| s.cache_hits);
    let sessions: BTreeSet<&str> = m
        .results
        .iter()
        .flat_map(|r| r.sends.iter())
        .map(|&(_, req)| stream.requests[req as usize].session.as_str())
        .collect();
    let laps = m
        .results
        .iter()
        .zip(&m.plans)
        .map(|(r, p)| r.sent as f64 / p.len().max(1) as f64)
        .fold(0.0, f64::max);
    out.note(
        "workload_properties",
        json!({
            "profile": spec.profile.name(),
            "load": match load { Load::Open { rate } => format!("open loop, {rate} req/s over {conns} connections"),
                                 Load::Closed => format!("closed loop, {conns} connections") },
            "cache_hit_share": ratio(d_hits as f64, (d_hits + m.delta(|s| s.cache_misses)) as f64),
            "distinct_windows": windows.len(),
            "cache_capacity": d.cache_capacity,
            "mean_tokens_per_query": stream.mean_tokens(),
            "sessions": sessions.len(),
            "requests": out.attempted,
            "stream_requests": stream.requests.len(),
            "max_laps_over_stream": laps,
            "replies_per_s_by_slice": lat.rates,
            "p99_ms_by_slice": lat.p99s,
        }),
    );

    if args.trace {
        let batch_wait_us = server_layers(&mut out, &m, load, &late);
        replay_layers(
            &mut out,
            spec,
            scratch,
            &rec,
            &stream,
            &lines,
            &replay_order,
            &reference,
            &lat,
            batch_wait_us,
        )?;
        out.set(
            "workload.generate_s",
            stats::median(&generate_s),
            generate_s.len(),
        );
        out.set("workload.split_s", stats::median(&split_s), split_s.len());
        out.set("serve.boot_s", stats::median(&boot_s), boot_s.len());
        out.set("nn.train_s", stats::median(&train_s), train_s.len());
        let counters = &trained.train_counters;
        out.set(
            "nn.train.tokens_per_s",
            ratio(counters.train_tokens as f64, trained.train_s),
            1,
        );
        out.set(
            "tensor.gemm.calls_per_epoch",
            ratio(counters.gemm_calls() as f64, epochs_run as f64),
            epochs_run,
        );
        out.set(
            "core.eval.us_per_pair",
            ratio(eval_s * 1e6, test.len() as f64),
            test.len(),
        );
    }
    Ok(out)
}
