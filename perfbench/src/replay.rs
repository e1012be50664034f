//! The traced run's in-process replay: the request stream the server
//! was sent, pushed through the same layers the server runs, one call
//! per layer wrapped in a span.

use qrec_core::{PerKind, Recommender};
use qrec_nn::decode::EncCache;
use qrec_nn::Hypothesis;
use qrec_perfbench::spans::Tracer;
use qrec_serve::{CacheKey, FrameBuf, RecCache, Request, Response, ServerConfig, SessionStore};
use qrec_store::{Store, StoreConfig};
use qrec_workload::QueryRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Encoder-cache slots per decode worker, as the server's batcher uses.
const ENC_CACHE_SLOTS: usize = 8;
/// Model epoch the replay keys its cache with.
const EPOCH: u64 = 1;

/// Answers and wall time of one replay pass.
pub struct Replay {
    /// Wall time of the pass, seconds.
    pub elapsed_s: f64,
    /// Top-n fragments per request, in replay order.
    pub answers: Vec<PerKind<Vec<String>>>,
    /// Requests answered from the cache.
    pub hits: usize,
}

/// Rank fragments of each kind by aggregated probability, ties broken
/// by name. This is what `Recommender::ranked_fragments_for_tokens_cached`
/// does after decoding (its ranking helper is private); the replay's
/// answers are checked against the offline answers, so a drift between
/// the two shows up as a parity failure.
pub fn rank(rec: &Recommender, hyps: &[Hypothesis]) -> PerKind<Vec<String>> {
    rec.fragment_probabilities(hyps).map(|_, m| {
        let mut ranked: Vec<(&String, f64)> = m.iter().map(|(f, &p)| (f, p)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        ranked.into_iter().map(|(f, _)| f.clone()).collect()
    })
}

/// Replay `order` (indices into `lines`) through fresh serving layers:
/// framing, protocol decode, SQL parse, session push (durable under
/// `durable_dir`), cache, decode on a miss, rank, and reply encoding.
/// The `warm` requests go first, untimed and untraced, as the server's
/// warm-up lap did.
pub fn replay(
    rec: &Recommender,
    lines: &[Vec<u8>],
    warm: &[u32],
    order: &[u32],
    durable_dir: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let cfg = ServerConfig::default();
    let store = match durable_dir {
        Some(dir) => {
            let wal = Store::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
            SessionStore::with_durable(
                cfg.session_shards,
                cfg.session_window,
                cfg.session_ttl,
                Arc::new(wal),
            )
        }
        None => SessionStore::new(cfg.session_shards, cfg.session_window, cfg.session_ttl),
    };
    let cache = RecCache::new(cfg.cache_capacity);
    let strategy = cfg.engine.strategy;
    let mut enc = EncCache::new(ENC_CACHE_SLOTS);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut frames = FrameBuf::new(cfg.max_line_bytes);
    let mut answers = Vec::with_capacity(order.len());
    let mut hits = 0;
    let mut silent = Tracer::disabled();
    let mut start = Instant::now();
    for (i, &req) in warm.iter().chain(order).enumerate() {
        let warming = i < warm.len();
        if i == warm.len() {
            hits = 0;
            start = Instant::now();
        }
        let tracer = if warming { &mut silent } else { &mut *tracer };
        let id = i.saturating_sub(warm.len()) as u32;
        let line = &lines[req as usize];
        tracer.begin("request", id);
        let frame = tracer.span("serve.framing", id, || {
            frames.feed(line);
            frames.pop_frame()
        });
        let frame = frame
            .map_err(|e| e.to_string())?
            .ok_or("request line without a terminator")?;
        let parsed = tracer.span("serve.protocol.parse", id, || {
            std::str::from_utf8(&frame)
                .ok()
                .and_then(|s| serde_json::from_str::<Request>(s).ok())
        });
        let Some(Request {
            session: Some(session),
            sql: Some(sql),
            n,
            ..
        }) = parsed
        else {
            return Err(format!("request {req} did not decode"));
        };
        let record = tracer.span("sql.parse", id, || QueryRecord::new(&sql));
        std::hint::black_box(record.map_err(|e| e.to_string())?);
        let tokens = tracer
            .span("serve.session.push", id, || store.push_sql(&session, &sql))
            .map_err(|e| e.to_string())?;
        let key = CacheKey::new(EPOCH, &tokens);
        let (ranked, cached) = match tracer.span("serve.cache", id, || cache.get(&key)) {
            Some(r) => {
                hits += 1;
                (r, true)
            }
            None => {
                let hyps = tracer.span("nn.decode", id, || {
                    rec.decode_candidates_for_tokens_cached(&tokens, strategy, &mut rng, &mut enc)
                });
                let ranked = tracer.span("core.rank", id, || rank(rec, &hyps));
                tracer.span("serve.cache", id, || cache.put(key, ranked.clone()));
                (ranked, false)
            }
        };
        let n = n.map_or(qrec_perfbench::setup::TOP_N, |n| n as usize);
        let top = tracer.span("core.rank", id, || {
            ranked.map(|_, r| r.iter().take(n).cloned().collect::<Vec<String>>())
        });
        let reply = tracer.span("serve.protocol.encode", id, || {
            Response::recommendation(top.clone(), EPOCH, cached).to_json_line()
        });
        std::hint::black_box(reply);
        tracer.end();
        if !warming {
            answers.push(top);
        }
    }
    Ok(Replay {
        elapsed_s: start.elapsed().as_secs_f64(),
        answers,
        hits,
    })
}
