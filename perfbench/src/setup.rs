//! Workload definitions, training from the seed, and the replayed
//! request streams.

use qrec_core::{Arch, Recommender, RecommenderConfig, SeqMode, SizePreset};
use qrec_nn::trainer::TrainReport;
use qrec_workload::gen::{generate, generate_with_catalog, Catalog, WorkloadProfile};
use qrec_workload::{QueryRecord, Split, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Fragments per kind every RECOMMEND asks for (the paper's N = 5).
pub const TOP_N: usize = 5;

/// Seed of every workload's training log and catalog. Models are
/// trained on every run, but on a log from this fixed seed: with a log
/// that depends on `--seed`, the model and so the decode cost per
/// request move with the seed by more than the metrics' bounds.
/// `--seed` drives the serving sessions, generated over this catalog,
/// and the offline workload's train/validation/test split.
pub const LOG_SEED: u64 = 1;
/// Sessions in the generated training workload of a serving workload.
const SERVE_TRAIN_SESSIONS: usize = 200;
/// Fixed epoch count of the serving model (no early stopping).
const SERVE_EPOCHS: usize = 4;
/// Sessions in the offline workload's generated SDSS log.
const OFFLINE_SESSIONS: usize = 100;
/// Fixed epoch count of the offline workload (no early stopping).
const OFFLINE_EPOCHS: usize = 3;
/// Distinct input windows the `sdss-hot` pool may hold: three quarters
/// of the server's 1024-entry cache, so the LRU never evicts.
pub const HOT_POOL_WINDOWS: usize = 768;
/// Offered rate of `sdss-open`, requests per second over all
/// connections. A 2-core machine keeps p99 far below the 100 ms limit
/// at this rate.
pub const OPEN_RATE: f64 = 800.0;
/// Latency limit of `sdss-open`.
pub const OPEN_P99_LIMIT_MS: f64 = 100.0;
/// Closed-loop request rate the serving streams are sized for; a
/// connection that runs past the end wraps around to the start.
const CLOSED_RATE_SIZING: f64 = 3000.0;

/// The SDSS or SQLShare generator profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// One shared astronomy schema, long scripted sessions.
    Sdss,
    /// Many small user datasets, short sessions, little repetition.
    SqlShare,
}

impl Profile {
    fn base(self) -> WorkloadProfile {
        match self {
            Profile::Sdss => WorkloadProfile::sdss(),
            Profile::SqlShare => WorkloadProfile::sqlshare(),
        }
    }

    /// The profile with `sessions` sessions.
    pub fn with_sessions(self, sessions: usize) -> WorkloadProfile {
        WorkloadProfile {
            sessions,
            ..self.base()
        }
    }

    /// Profile name as recorded in the report.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Sdss => "sdss",
            Profile::SqlShare => "sqlshare",
        }
    }
}

/// How requests reach the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// A fixed offered rate, regardless of replies.
    Open {
        /// Requests per second over all connections.
        rate: f64,
    },
    /// One outstanding request per connection.
    Closed,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator profile of the sessions (and of the training log).
    pub profile: Profile,
    /// `None` for the offline pipeline, which starts no server.
    pub load: Option<Load>,
    /// Sessions are written through the WAL-backed store.
    pub durable: bool,
    /// Replay a cache-resident pool in laps after a warm-up lap.
    pub hot: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "sdss-open",
        profile: Profile::Sdss,
        load: Some(Load::Open { rate: OPEN_RATE }),
        durable: true,
        hot: false,
    },
    Spec {
        name: "sqlshare-closed",
        profile: Profile::SqlShare,
        load: Some(Load::Closed),
        durable: false,
        hot: false,
    },
    Spec {
        name: "sdss-hot",
        profile: Profile::Sdss,
        load: Some(Load::Closed),
        durable: false,
        hot: true,
    },
    Spec {
        name: "offline",
        profile: Profile::Sdss,
        load: None,
        durable: false,
        hot: false,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Result<Spec, String> {
    WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })
}

/// The model a serving workload trains and serves: the transformer
/// preset `qrec-serve` ships, for a fixed epoch count.
pub fn serving_config() -> RecommenderConfig {
    let mut cfg = RecommenderConfig::test(Arch::Transformer, SeqMode::Aware);
    cfg.train.epochs = SERVE_EPOCHS;
    cfg.train.batch_size = 16;
    cfg.train.patience = 0;
    cfg
}

/// The offline workload's model: the experiment-size transformer
/// (d_model 48, two layers), for a fixed epoch count.
pub fn offline_config() -> RecommenderConfig {
    let mut cfg = RecommenderConfig::new(Arch::Transformer, SeqMode::Aware);
    cfg.size = SizePreset::Small;
    cfg.train.epochs = OFFLINE_EPOCHS;
    cfg.train.batch_size = 16;
    cfg.train.adam.lr = 1.5e-3;
    cfg.train.patience = 0;
    cfg
}

/// Sessions in the training log of a workload.
pub fn train_sessions(spec: &Spec) -> usize {
    if spec.load.is_some() {
        SERVE_TRAIN_SESSIONS
    } else {
        OFFLINE_SESSIONS
    }
}

/// Process-wide counters read around training.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `nn.train.tokens`.
    pub train_tokens: u64,
    /// `tensor.gemm.naive`, `tensor.gemm.blocked`, `tensor.gemm.parallel`.
    pub gemm: [u64; 3],
}

impl Counters {
    /// Read the process-wide registry.
    pub fn read() -> Counters {
        let snap = qrec_obs::global().snapshot();
        let get = |name: &str| snap.counter(name).unwrap_or(0);
        Counters {
            train_tokens: get("nn.train.tokens"),
            gemm: [
                get("tensor.gemm.naive"),
                get("tensor.gemm.blocked"),
                get("tensor.gemm.parallel"),
            ],
        }
    }

    /// GEMM calls of any kind.
    pub fn gemm_calls(&self) -> u64 {
        self.gemm.iter().sum()
    }

    /// Element-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            train_tokens: self.train_tokens - before.train_tokens,
            gemm: [
                self.gemm[0] - before.gemm[0],
                self.gemm[1] - before.gemm[1],
                self.gemm[2] - before.gemm[2],
            ],
        }
    }
}

/// The generated log, its split, and the model trained on it.
pub struct Trained {
    /// The training log.
    pub workload: Workload,
    /// Its catalog, which the serving sessions are generated over.
    pub catalog: Catalog,
    /// The 80/10/10 pair split.
    pub split: Split,
    /// The trained model.
    pub rec: Recommender,
    /// Its training report.
    pub report: TrainReport,
    /// Seconds spent generating the log.
    pub generate_s: f64,
    /// Seconds spent splitting it into pairs.
    pub split_s: f64,
    /// Seconds spent training.
    pub train_s: f64,
    /// Counter deltas over training.
    pub train_counters: Counters,
}

/// Generate the log from [`LOG_SEED`] and split it with `split_seed`,
/// timing each phase.
pub fn generate_and_split(
    profile: &WorkloadProfile,
    split_seed: u64,
) -> (Workload, Catalog, Split, f64, f64) {
    let t = Instant::now();
    let (workload, catalog) = generate(profile, LOG_SEED);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let split = Split::paper(workload.pairs(), &mut StdRng::seed_from_u64(split_seed));
    let split_s = t.elapsed().as_secs_f64();
    (workload, catalog, split, generate_s, split_s)
}

/// Generate, split and train.
pub fn train(
    profile: &WorkloadProfile,
    split_seed: u64,
    cfg: RecommenderConfig,
) -> Result<Trained, String> {
    let (workload, catalog, split, generate_s, split_s) = generate_and_split(profile, split_seed);
    let before = Counters::read();
    let t = Instant::now();
    let (rec, report) = Recommender::try_train(&split, &workload, cfg)
        .map_err(|e| format!("training failed: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();
    let train_counters = Counters::read().since(&before);
    Ok(Trained {
        workload,
        catalog,
        split,
        rec,
        report,
        generate_s,
        split_s,
        train_s,
        train_counters,
    })
}

/// One RECOMMEND of the replayed stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Session id on the wire.
    pub session: String,
    /// The query as generated; the server sees only this text.
    pub record: QueryRecord,
    /// Index of the request's input window in [`Stream::windows`].
    pub window: u32,
    /// Index of the session's next query in [`Stream::requests`].
    pub next: Option<u32>,
}

/// Generated sessions flattened into requests, session by session.
pub struct Stream {
    /// Requests, each session's queries contiguous and in order.
    pub requests: Vec<Request>,
    /// Request index ranges of the sessions.
    pub sessions: Vec<std::ops::Range<usize>>,
    /// Canonical key (window tokens joined by U+001F) of each distinct
    /// input window, indexed by [`Request::window`].
    pub windows: Vec<String>,
    /// First request with each window, indexed like `windows`.
    pub window_request: Vec<u32>,
}

impl Stream {
    /// Mean tokens per query.
    pub fn mean_tokens(&self) -> f64 {
        let total: usize = self.requests.iter().map(|r| r.record.tokens.len()).sum();
        total as f64 / self.requests.len().max(1) as f64
    }
}

/// The canonical key of a window-1 input: the query's parser tokens,
/// exactly as the server's session store hands them to the cache.
pub fn window_key(record: &QueryRecord) -> String {
    record.tokens.join("\u{1f}")
}

fn flatten(workload: &Workload, id_prefix: &str) -> Stream {
    let mut requests = Vec::new();
    let mut sessions = Vec::new();
    let mut index: HashMap<String, u32> = HashMap::new();
    let mut windows = Vec::new();
    let mut window_request = Vec::new();
    for s in &workload.sessions {
        let start = requests.len();
        for (i, q) in s.queries.iter().enumerate() {
            let key = window_key(q);
            let window = *index.entry(key.clone()).or_insert_with(|| {
                windows.push(key);
                window_request.push(requests.len() as u32);
                (windows.len() - 1) as u32
            });
            let next = (i + 1 < s.queries.len()).then(|| (requests.len() + 1) as u32);
            requests.push(Request {
                session: format!("{id_prefix}{}", s.id),
                record: q.clone(),
                window,
                next,
            });
        }
        sessions.push(start..requests.len());
    }
    Stream {
        requests,
        sessions,
        windows,
        window_request,
    }
}

/// The serving sessions of a workload, generated over the training
/// catalog from the workload seed. `seconds` sizes the stream.
pub fn serving_stream(spec: &Spec, catalog: &Catalog, seed: u64, seconds: f64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_1045);
    let base = spec.profile.with_sessions(1);
    if spec.hot {
        // Take whole sessions, in generation order, while their
        // distinct windows still fit the pool.
        let mut pool = Workload::new(base.name.clone());
        let mut distinct = std::collections::HashSet::new();
        let batch = generate_with_catalog(&spec.profile.with_sessions(1000), catalog, &mut rng);
        for s in batch.sessions {
            let fresh: Vec<String> = s.queries.iter().map(window_key).collect();
            let grown = fresh.iter().filter(|k| !distinct.contains(*k)).count();
            if distinct.len() + grown > HOT_POOL_WINDOWS {
                break;
            }
            distinct.extend(fresh);
            pool.sessions.push(s);
        }
        return flatten(&pool, "hot-");
    }
    let wanted = match spec.load {
        Some(Load::Open { rate }) => rate * seconds,
        _ => CLOSED_RATE_SIZING * seconds,
    }
    .ceil() as usize;
    let per_session = base.mean_session_len.max(1.0);
    let sessions = ((wanted as f64 / per_session) * 1.25).ceil() as usize + 16;
    let mut workload =
        generate_with_catalog(&spec.profile.with_sessions(sessions), catalog, &mut rng);
    while workload.query_count() < wanted {
        let more = generate_with_catalog(&spec.profile.with_sessions(sessions), catalog, &mut rng);
        let offset = workload.sessions.len() as u64;
        workload
            .sessions
            .extend(more.sessions.into_iter().map(|mut s| {
                s.id += offset;
                s
            }));
    }
    flatten(&workload, "s-")
}
