//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span. Spans stay in a preallocated vector while the replay runs and
//! are reduced only when it ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds from the tracer's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"nn.decode"`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            enabled: true,
        }
    }

    /// A tracer that records nothing, so the same replay code runs with
    /// tracing off.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::with_capacity(0)
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, ns, index-aligned with `spans`: duration
/// minus the union of its children's intervals clipped to its own.
/// Children may overlap one another (work fanned out to threads); the
/// covered part is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                cursor = cursor.max(b);
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time per layer and request, microseconds: the self times of
/// every span with the same name in the same request, summed.
pub fn self_us_by_request(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
    let mut ns: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *ns.entry(s.name).or_default().entry(s.request).or_default() += t;
    }
    ns.into_iter()
        .map(|(name, per)| {
            (
                name,
                per.into_iter().map(|(r, t)| (r, t as f64 / 1e3)).collect(),
            )
        })
        .collect()
}
