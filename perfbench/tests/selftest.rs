//! Self-tests of the benchmark's own arithmetic and of its declaration:
//! percentiles with their sample counts, the open-loop due-time latency
//! and lateness, span self-time subtraction, the parity comparator and
//! served micro-F1, and `BENCHMARK.json` against the names the binary
//! prints.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use qrec_core::PerKind;
use qrec_perfbench::metrics::{END_TO_END, PER_LAYER};
use qrec_perfbench::parity::{compare, micro_f1, record_pair, Mismatch};
use qrec_perfbench::setup::WORKLOADS;
use qrec_perfbench::spans::{self_times, self_us_by_request, Span, Tracer, NO_PARENT};
use qrec_perfbench::stats::{
    latency_from_due, lateness, median, percentile, sliced, summarize, Schedule,
};
use qrec_sql::{FragmentKind, FragmentSet};
use std::collections::BTreeSet;

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn p99_of_a_thousand_samples_has_ten_beyond_it() {
    // Why a latency slice holds at least 1000 replies.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&v, 0.99);
    assert_eq!(p99, 990.0);
    assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
}

#[test]
fn summary_sorts_and_counts() {
    let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
    let s = summarize(&mut v);
    assert_eq!(s.n, 5);
    assert_eq!(s.p50, 3.0);
    assert_eq!(s.p90, 5.0);
    assert_eq!(s.p99, 5.0);
    let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(summarize(&mut hundred).p90, 90.0);
    assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 3.0);
}

#[test]
fn open_loop_schedule_interleaves_connections() {
    let sched = Schedule {
        rate: 100.0,
        conns: 2,
    };
    assert_eq!(sched.due_s(0, 0), 0.0);
    assert_eq!(sched.due_s(1, 0), 0.01);
    assert_eq!(sched.due_s(0, 1), 0.02);
    assert_eq!(sched.due_s(1, 1), 0.03);
    // 2.5 s at 100/s: 250 requests, due at 0.00 .. 2.49.
    let total: usize = (0..2).map(|c| sched.requests_for(c, 2.5)).sum();
    assert_eq!(total, 250);
    assert_eq!(sched.requests_for(0, 2.5), 125);
    let three = Schedule {
        rate: 10.0,
        conns: 3,
    };
    // 1 s at 10/s: 10 requests over 3 connections as 4 + 3 + 3.
    let per: Vec<usize> = (0..3).map(|c| three.requests_for(c, 1.0)).collect();
    assert_eq!(per, vec![4, 3, 3]);
    for (c, &n) in per.iter().enumerate() {
        assert!(three.due_s(c, n - 1) < 1.0);
    }
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // Due at 1.0 s, sent 0.5 s late because the generator stalled,
    // answered 0.2 s after the send: the request waited 0.7 s.
    let (due, sent, reply) = (1.0, 1.5, 1.7);
    assert!((latency_from_due(due, reply) - 0.7).abs() < 1e-12);
    assert!((lateness(due, sent) - 0.5).abs() < 1e-12);
    assert_eq!(lateness(due, 0.9), 0.0);
}

#[test]
fn slices_keep_one_burst_out_of_the_medians() {
    // 4000 samples over 4 s; the last second is three times slower.
    let samples: Vec<(f64, f64)> = (0..4000)
        .map(|i| {
            let t = f64::from(i) / 1000.0;
            (t, if t >= 3.0 { 3.0 } else { 1.0 })
        })
        .collect();
    let s = sliced(&samples, 4.0, 1000, 8);
    assert_eq!(s.rates.len(), 4);
    assert_eq!(s.n, 4000);
    assert_eq!(s.p50, 1.0);
    assert_eq!(s.p99, 1.0);
    assert!(s.rates.iter().all(|r| (r - 1000.0).abs() < 1e-9));
    // Too few samples for two slices of 1000: one slice.
    let few = sliced(&samples[..1500], 1.5, 1000, 8);
    assert_eq!(few.rates.len(), 1);
    assert!((few.rates[0] - 1000.0).abs() < 1e-9);
}

fn span(name: &'static str, start: u64, end: u64, parent: u32, request: u32) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("request", 0, 100, NO_PARENT, 0),
        // Two overlapping children cover 10..50: 40 ns, not 50.
        span("a", 10, 30, 0, 0),
        span("b", 20, 50, 0, 0),
        // A grandchild is subtracted from its parent only.
        span("c", 22, 28, 2, 0),
        // A child running past its parent is clipped.
        span("d", 90, 120, 0, 0),
    ];
    let t = self_times(&spans);
    assert_eq!(t, vec![100 - 40 - 10, 20, 30 - 6, 6, 30]);
}

#[test]
fn self_time_per_request_sums_repeated_layers() {
    let spans = [
        span("request", 0, 100, NO_PARENT, 0),
        span("cache", 10, 15, 0, 0),
        span("decode", 15, 80, 0, 0),
        span("cache", 80, 84, 0, 0),
        span("request", 100, 130, NO_PARENT, 1),
        span("cache", 110, 112, 4, 1),
    ];
    let by = self_us_by_request(&spans);
    assert_eq!(by["cache"][&0], 9.0 / 1e3);
    assert_eq!(by["cache"][&1], 2.0 / 1e3);
    assert_eq!(by["decode"].len(), 1);
    assert_eq!(by["request"][&0], (100.0 - 74.0) / 1e3);
}

#[test]
fn tracer_nests_spans_and_can_be_switched_off() {
    let mut t = Tracer::with_capacity(4);
    t.begin("request", 7);
    let x = t.span("inner", 7, || 41 + 1);
    t.end();
    assert_eq!(x, 42);
    let s = t.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[0].parent, s[1].parent), (NO_PARENT, 0));
    assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    assert_eq!(s[1].request, 7);
    let mut off = Tracer::disabled();
    off.begin("request", 0);
    off.span("inner", 0, || ());
    off.end();
    assert!(off.spans().is_empty());
}

fn ranking(table: &[&str], column: &[&str]) -> PerKind<Vec<String>> {
    PerKind {
        table: table.iter().map(|s| s.to_string()).collect(),
        column: column.iter().map(|s| s.to_string()).collect(),
        ..PerKind::default()
    }
}

#[test]
fn parity_compares_every_kind_byte_for_byte() {
    let a = ranking(&["photoobj", "specobj"], &["ra", "dec"]);
    assert_eq!(compare(&a, &a.clone()), None);
    let swapped = ranking(&["photoobj", "specobj"], &["dec", "ra"]);
    assert_eq!(
        compare(&swapped, &a),
        Some(Mismatch {
            kind: FragmentKind::Column,
            rank: 0
        })
    );
    let spaced = ranking(&["photoobj ", "specobj"], &["ra", "dec"]);
    assert_eq!(
        compare(&spaced, &a),
        Some(Mismatch {
            kind: FragmentKind::Table,
            rank: 0
        })
    );
    let short = ranking(&["photoobj"], &["ra", "dec"]);
    assert_eq!(
        compare(&short, &a),
        Some(Mismatch {
            kind: FragmentKind::Table,
            rank: 1
        })
    );
    let mut extra = a.clone();
    extra.literal.push("<NUM>".into());
    assert!(compare(&extra, &a).is_some());
}

#[test]
fn served_micro_f1_sums_over_kinds() {
    let next = FragmentSet {
        tables: BTreeSet::from(["specobj".to_string(), "photoobj".to_string()]),
        columns: BTreeSet::from(["z".to_string()]),
        ..FragmentSet::default()
    };
    let mut acc = PerKind::default();
    // Top-2 tables hit one of two; the third ranked table is cut by n.
    let served = ranking(&["photoobj", "galaxy", "specobj"], &["z"]);
    record_pair(&mut acc, &served, &next, 2);
    // Hits 2 (photoobj, z) of 3 predicted and 3 actual.
    let f1 = micro_f1(&acc);
    assert!((f1 - 2.0 / 3.0).abs() < 1e-12, "{f1}");
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn names(v: &serde_json::Value, with_unit: bool) -> Vec<(String, String)> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().expect("name").to_string();
            let unit = if with_unit {
                field(m, "unit").as_str().expect("unit").to_string()
            } else {
                String::new()
            };
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names(field(&doc, "end_to_end"), true),
        declared(&END_TO_END)
    );
    assert_eq!(names(field(&doc, "per_layer"), true), declared(&PER_LAYER));
    let workloads: Vec<String> = names(field(&doc, "workloads"), false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, ours);
}
