//! `qrec-perfbench` — the workload-replay benchmark of qrec.
//!
//! ```text
//! qrec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Serving workloads (`sdss-open`, `sqlshare-closed`, `sdss-hot`) train
//! the serving model, start a separate server process on it, and replay
//! SDSS or SQLShare sessions generated from `--seed` over TCP, session
//! by session. Every served reply is compared byte for byte with the
//! offline `Recommender` answer for the same window, and the client's
//! counts are checked against the server's STATS deltas. The `offline`
//! workload runs generate, split, train and `eval_n_fragments` in this
//! process.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, taken from spans the benchmark records around calls into
//! each layer while it replays the same requests in process, and from
//! the server's STATS/DUMP counters. The line before it is a report
//! with provenance, workload properties, sample counts and the checks.

mod offline;
mod replay;
mod serving;
mod wire;

use qrec_core::{eval_n_fragments, FragmentPredictor, PerKind, Recommender, SetMetrics};
use qrec_perfbench::metrics::{END_TO_END, PER_LAYER};
use qrec_perfbench::setup::{self, TOP_N};
use qrec_workload::OwnedPair;
use serde_json::{json, Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Least wall time the test-split evaluation is repeated for; the mean
/// pass gives `eval_pairs_per_s`.
const MIN_EVAL_S: f64 = 2.0;
/// Least evaluation passes.
const MIN_EVAL_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed checks; any makes the run incorrect.
    problems: Vec<String>,
    /// Metric name → (value, samples behind it).
    values: HashMap<&'static str, (f64, usize)>,
    report: Map,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn note(&mut self, key: &str, value: Value) {
        self.report.insert(key, value);
    }
}

/// A run's private directory under the working directory, removed when
/// the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve-child") {
        return wire::serve_child(&argv[1..]);
    }
    let result = parse_args(&argv).and_then(|args| {
        let scratch = Scratch::create()?;
        let out = run(&args, &scratch.0)?;
        render(&args, out)
    });
    match result {
        Ok((report, last)) => {
            println!("{report}");
            println!("{last}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let spec = setup::spec(&args.workload)?;
    let mut out = match spec.load {
        Some(load) => serving::run(args, &spec, load, scratch)?,
        None => offline::run(args, &spec)?,
    };
    let host = json!({
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "qrec_threads": std::env::var("QREC_THREADS").unwrap_or_else(|_| "unset".into()),
        "compute_pool_threads": qrec_tensor::pool::configured_threads(),
    });
    out.note("host", host);
    Ok(out)
}

/// The report line and the result line.
fn render(args: &Args, out: Outcome) -> Result<(String, String), String> {
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Map::new();
    for &(name, unit) in declared {
        let &(value, _) = out
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.insert(name, json!({"value": value, "unit": unit}));
    }
    let correct = out.problems.is_empty();
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let mut report = out.report;
    report.insert("workload", json!(args.workload));
    report.insert("seed", json!(args.seed));
    report.insert("seconds", json!(args.seconds));
    report.insert("trace", json!(args.trace));
    report.insert("problems", json!(out.problems));
    // Every value measured, printed or not, with the samples behind it.
    let mut all: Vec<_> = out.values.into_iter().collect();
    all.sort_by(|a, b| a.0.cmp(b.0));
    let all: Map = all
        .into_iter()
        .map(|(k, (v, n))| (k.to_string(), json!({"value": v, "samples": n})))
        .collect();
    report.insert("all_values", Value::Object(all));
    let report = json!({ "perfbench_report": Value::Object(report) });
    let last = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    let enc = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    Ok((enc(&report)?, enc(&last)?))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// FNV-1a over the paths and contents of the program's sources, so a
/// result names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    walk(Path::new(".cargo"), &mut files);
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&[0]);
            eat(&bytes);
        }
    }
    format!("fnv1a64:{h:016x}")
}

fn model_note(rec: &Recommender, epochs_run: usize) -> Value {
    let cfg = rec.config();
    json!({
        "arch": format!("{:?}", cfg.arch),
        "size": format!("{:?}", cfg.size),
        "epochs": epochs_run,
        "batch_size": cfg.train.batch_size,
        "vocab": rec.vocab().len(),
        "params": rec.param_count(),
        "max_decode_len": cfg.max_decode_len,
    })
}

/// `eval_n_fragments` over the same pairs, pass after pass.
struct EvalRun {
    /// Scores of the first pass.
    first: PerKind<SetMetrics>,
    /// Wall time of each pass, seconds.
    pass_s: Vec<f64>,
    /// Passes that scored differently from the first.
    differing: usize,
    pairs: usize,
}

impl EvalRun {
    /// Mean wall time of a pass: total time over passes, so a machine
    /// that alternates between two speeds is averaged, not sampled.
    fn mean_pass_s(&self) -> f64 {
        self.pass_s.iter().sum::<f64>() / self.pass_s.len().max(1) as f64
    }

    fn differing_pairs(&self) -> usize {
        self.differing * self.pairs
    }

    fn describe_differing(&self) -> String {
        format!(
            "{} of {} evaluation passes scored differently from the first",
            self.differing,
            self.pass_s.len()
        )
    }
}

/// Evaluate `pairs` (top-5 N-fragments) in passes until `min_s` seconds
/// and [`MIN_EVAL_PASSES`] passes are done.
fn eval_passes(pred: &mut dyn FragmentPredictor, pairs: &[OwnedPair], min_s: f64) -> EvalRun {
    let start = Instant::now();
    let mut run = EvalRun {
        first: PerKind::default(),
        pass_s: Vec::new(),
        differing: 0,
        pairs: pairs.len(),
    };
    while run.pass_s.len() < MIN_EVAL_PASSES || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        let m = eval_n_fragments(pred, pairs, TOP_N);
        run.pass_s.push(t.elapsed().as_secs_f64());
        if run.pass_s.len() == 1 {
            run.first = m;
        } else if m != run.first {
            run.differing += 1;
        }
    }
    run
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
