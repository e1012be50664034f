//! Metric names and units, in the order they are printed.
//!
//! Every workload prints every metric of the list its mode asks for.
//! Where a workload does not run a layer (the offline pipeline starts no
//! server), that layer's per-layer metric reads 0.

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("fragment_f1", "share"),
    ("server_rss_mb", "MB"),
    ("train_pairs_per_s", "pairs/s"),
    ("val_loss", "nats"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("sql.parse_us", "us"),
    ("serve.framing_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.session.push_us", "us"),
    ("store.wal_appends_per_req", "count"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.lookup_us", "us"),
    ("serve.batch.size_mean", "count"),
    ("serve.batch.wait_us", "us"),
    ("nn.decode.miss_us", "us"),
    ("nn.decode.steps_per_miss", "count"),
    ("nn.decode.enc_cache_hit_ratio", "share"),
    ("tensor.gemm.calls_per_miss", "count"),
    ("core.rank_us", "us"),
    ("serve.residual_us", "us"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead", "ratio"),
    ("workload.generate_s", "s"),
    ("workload.split_s", "s"),
    ("serve.boot_s", "s"),
    ("nn.train_s", "s"),
    ("nn.train.tokens_per_s", "tokens/s"),
    ("tensor.gemm.calls_per_epoch", "count"),
    ("core.eval.us_per_pair", "us"),
];
