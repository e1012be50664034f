//! Order statistics and the open-loop schedule.

/// A percentile summary of one timing, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is clamped to
/// `[0, 1]`; an empty slice gives `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.50),
        p90: percentile(samples, 0.90),
        p99: percentile(samples, 0.99),
    }
}

/// Median of `samples` (the nearest-rank 50th percentile, so a value
/// that was actually measured). `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The open-loop schedule: `conns` connections share one offered rate,
/// and request `k` of connection `c` is the `c + k·conns`-th request
/// overall, due `(c + k·conns) / rate` seconds after the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Offered requests per second, summed over connections.
    pub rate: f64,
    /// Connections the rate is spread over.
    pub conns: usize,
}

impl Schedule {
    /// Seconds after the start at which request `k` of connection `c`
    /// is due.
    pub fn due_s(&self, conn: usize, k: usize) -> f64 {
        (conn + k * self.conns) as f64 / self.rate
    }

    /// Requests connection `c` sends in a run of `seconds`: those due
    /// strictly before the end.
    pub fn requests_for(&self, conn: usize, seconds: f64) -> usize {
        let total = (seconds * self.rate).ceil() as usize;
        if conn >= total {
            0
        } else {
            (total - conn).div_ceil(self.conns)
        }
    }
}

/// Latency of an open-loop request, measured from when it was due (not
/// from when it was sent), so a stall also charges the requests that
/// queued behind it. All times are seconds from the run's start.
pub fn latency_from_due(due_s: f64, reply_s: f64) -> f64 {
    reply_s - due_s
}

/// How late the generator sent a request (never negative: a request is
/// not sent before it is due).
pub fn lateness(due_s: f64, sent_s: f64) -> f64 {
    (sent_s - due_s).max(0.0)
}

/// Timed samples summarised per time slice, then across slices: a
/// burst of outside load moves one slice, not the reported medians.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    /// Samples per second in each slice.
    pub rates: Vec<f64>,
    /// 99th percentile of each non-empty slice.
    pub p99s: Vec<f64>,
    /// Samples in all slices.
    pub n: usize,
    /// Median over slices of the slice's median.
    pub p50: f64,
    /// Median over slices of the slice's 90th percentile.
    pub p90: f64,
    /// Median over slices of the slice's 99th percentile.
    pub p99: f64,
}

/// Cut `(time, value)` samples into equal time slices of `[0, span)`
/// and summarise: as many slices as keep at least `min_per_slice`
/// samples in each on average, at most `max_slices`, at least one.
/// Samples at or past `span` fall in the last slice.
pub fn sliced(
    samples: &[(f64, f64)],
    span: f64,
    min_per_slice: usize,
    max_slices: usize,
) -> Sliced {
    let slices = (samples.len() / min_per_slice.max(1)).clamp(1, max_slices.max(1));
    let width = span / slices as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let i = if width > 0.0 {
            (t / width).max(0.0) as usize
        } else {
            0
        };
        buckets[i.min(slices - 1)].push(v);
    }
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut p99s = Vec::new();
    for b in &mut buckets {
        rates.push(if width > 0.0 {
            b.len() as f64 / width
        } else {
            0.0
        });
        if !b.is_empty() {
            let s = summarize(b);
            p50s.push(s.p50);
            p90s.push(s.p90);
            p99s.push(s.p99);
        }
    }
    Sliced {
        n: samples.len(),
        p50: median(&p50s),
        p90: median(&p90s),
        p99: median(&p99s),
        rates,
        p99s,
    }
}
