//! Served-answer parity and served quality.

use qrec_core::{PerKind, SetMetrics};
use qrec_sql::{FragmentKind, FragmentSet};
use std::collections::BTreeSet;

/// Where a served reply first differs from the offline answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Fragment kind of the first differing list.
    pub kind: FragmentKind,
    /// First differing rank (the shorter list's length when one list is
    /// a prefix of the other).
    pub rank: usize,
}

/// Compare a served ranking with the offline one byte for byte: same
/// kinds, same lengths, same fragment strings in the same order.
pub fn compare(served: &PerKind<Vec<String>>, offline: &PerKind<Vec<String>>) -> Option<Mismatch> {
    FragmentKind::ALL.into_iter().find_map(|kind| {
        let (s, o) = (served.get(kind), offline.get(kind));
        let rank = s
            .iter()
            .zip(o)
            .position(|(a, b)| a.as_bytes() != b.as_bytes())
            .or((s.len() != o.len()).then(|| s.len().min(o.len())))?;
        Some(Mismatch { kind, rank })
    })
}

/// Record one served pair into per-kind accumulators: the top-`n`
/// served fragments of each kind against the next query's fragments.
pub fn record_pair(
    acc: &mut PerKind<SetMetrics>,
    served: &PerKind<Vec<String>>,
    next: &FragmentSet,
    n: usize,
) {
    for kind in FragmentKind::ALL {
        let predicted: BTreeSet<String> = served.get(kind).iter().take(n).cloned().collect();
        acc.get_mut(kind).record(&predicted, next.of(kind));
    }
}

/// Micro-F1 over every kind: hits, predictions and actual fragments are
/// summed across kinds before precision and recall are formed.
pub fn micro_f1(acc: &PerKind<SetMetrics>) -> f64 {
    let mut all = SetMetrics::default();
    for kind in FragmentKind::ALL {
        all.merge(acc.get(kind));
    }
    all.f1()
}
