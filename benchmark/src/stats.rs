//! Order statistics and the span arithmetic of the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the samples, as a float so that an even count reports the
/// mean of the two middle values (a time that falls between two clock
/// readings is not rounded to one of them).
pub fn median(samples: &[u64]) -> f64 {
    let floats: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    median_f64(&floats)
}

/// Median of float samples; 0 of none.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail statistic reported as `txn_p99_us`: the samples, in the order
/// they were taken, are cut into ten equal slices; each slice gives its
/// nearest-rank p99 and the median of the ten is reported. One stall of
/// the machine lands in one slice and cannot move the result, which a
/// plain p99 over the run cannot promise. A slice of fewer than 100
/// samples gives its maximum (so on `bulk_txn`, with two samples per
/// slice, this is the median of per-slice maxima — an upper-quartile
/// figure, not a 99th percentile; the sample count is printed beside it).
pub fn sliced_p99(samples: &[u64]) -> f64 {
    const SLICES: usize = 10;
    if samples.is_empty() {
        return 0.0;
    }
    let per = (samples.len() / SLICES).max(1);
    let tails: Vec<u64> = samples
        .chunks(per)
        .take(SLICES)
        .map(|c| {
            let mut s = c.to_vec();
            s.sort_unstable();
            percentile(&s, 99.0)
        })
        .collect();
    median(&tails)
}

/// The statistic reported as `commits_per_s`: the timed section is cut
/// into ten equal slices of transactions, each gives its commits divided
/// by its wall time, and the median of the ten is reported. A stall that
/// recurs (run sealing, version trimming, fsync groups) is in every slice
/// and so in the result, which a median of transaction times would hide;
/// one hiccup of the machine is in one slice and is not. `ends_ns[i]` is
/// when transaction `i` returned, from the start of the section.
pub fn sliced_rate(ends_ns: &[u64], committed: &[bool]) -> f64 {
    const SLICES: usize = 10;
    let per = (ends_ns.len() / SLICES).max(1);
    let mut rates = Vec::with_capacity(SLICES);
    let mut from = 0u64;
    for (ends, done) in ends_ns.chunks(per).zip(committed.chunks(per)).take(SLICES) {
        let upto = *ends.last().expect("chunks are not empty");
        let commits = done.iter().filter(|c| **c).count();
        rates.push(commits as f64 / ((upto - from).max(1) as f64 / 1e9));
        from = upto;
    }
    median_f64(&rates)
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary. `name` is `<layer>.<what>`;
/// spans of one transaction share `txn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub txn: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// A trace on the clock of another (one per client thread, merged
    /// with [`Trace::absorb`]).
    pub fn since(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, txn: u32) -> u32 {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns, parent, txn)
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        s.dur()
    }

    /// Record a span whose bounds are already known (a duration the engine
    /// reported, laid out inside its parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        txn: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        txn: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, txn);
        let r = f();
        (r, self.close(id))
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| {
            let p = &spans[s.parent as usize];
            (
                s.parent,
                s.start_ns.clamp(p.start_ns, p.end_ns),
                s.end_ns.clamp(p.start_ns, p.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let (mut covered, mut reach) = (0u64, 0u64);
        while i < kids.len() && kids[i].0 == parent {
            let (_, start, end) = kids[i];
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
            i += 1;
        }
        own[parent as usize] -= covered;
    }
    own
}

/// Where a transaction's time went: each layer's summed self time as a
/// share of the summed root-span time. The roots' own self time is the
/// part no layer accounts for, reported under `unattributed`.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for (s, own) in spans.iter().zip(own) {
        if s.parent == NO_PARENT {
            total += s.dur();
            *by_layer.entry("unattributed").or_default() += own;
        } else {
            *by_layer.entry(s.layer()).or_default() += own;
        }
    }
    by_layer
        .into_iter()
        .map(|(k, v)| (k, v as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 0,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median(&[4, 1, 3, 2]), 2.5);
        assert_eq!(median(&[3, 1, 2]), 2.0);
    }

    #[test]
    fn sliced_p99_ignores_one_bad_slice() {
        // 1000 samples of 10, one slice ruined by a stall.
        let mut s = vec![10u64; 1000];
        for v in &mut s[300..400] {
            *v = 10_000;
        }
        assert_eq!(sliced_p99(&s), 10.0);
        // A tail present in every slice is reported.
        let mut s = vec![10u64; 1000];
        for i in (0..1000).step_by(50) {
            s[i] = 500;
        }
        assert_eq!(sliced_p99(&s), 500.0);
        // Fewer than 100 per slice: per-slice maximum.
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(sliced_p99(&s), 11.0);
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // 100 commits at 1 ms each, with one 1 s stall in the third slice.
        let mut ends = Vec::new();
        let mut now = 0u64;
        for i in 0..100 {
            now += if i == 25 { 1_000_000_000 } else { 1_000_000 };
            ends.push(now);
        }
        let rate = sliced_rate(&ends, &[true; 100]);
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        // Rolled-back transactions take time but are not commits.
        let mut done = [true; 100];
        done.iter_mut().step_by(2).for_each(|d| *d = false);
        assert!((sliced_rate(&ends, &done) - 500.0).abs() < 1e-6);
        assert_eq!(sliced_rate(&[], &[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_clipped_union_of_children() {
        let spans = vec![
            span("txn", 0, 100, NO_PARENT),
            span("storage.update", 10, 20, 0),
            span("core.check_phase", 30, 90, 0),
            span("core.pass", 30, 80, 2),
            // Two overlapping children, the second running past its parent.
            span("objectlog.diff", 30, 60, 3),
            span("objectlog.diff", 50, 95, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 10, 0, 30, 45]);
    }

    #[test]
    fn layer_shares_sum_to_one_over_nested_spans() {
        let spans = vec![
            span("txn", 0, 100, NO_PARENT),
            span("storage.update", 10, 20, 0),
            span("core.check_phase", 30, 90, 0),
            span("core.pass", 30, 80, 2),
            span("objectlog.diff", 30, 50, 3),
            span("objectlog.diff", 50, 75, 3),
            span("txn", 100, 200, NO_PARENT),
            span("storage.update", 100, 190, 6),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares["unattributed"], 0.20);
        assert_eq!(shares["storage"], 0.50);
        assert_eq!(shares["core"], 0.075);
        assert_eq!(shares["objectlog"], 0.225);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_spans_nest() {
        let mut t = Trace::default();
        let root = t.open("txn", NO_PARENT, 3);
        let ((), d) = t.span("storage.update", root, 3, || {});
        t.close(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, root);
        assert!(t.spans[0].dur() >= d);
        let mut other = Trace::since(Instant::now());
        let r2 = other.open("txn", NO_PARENT, 4);
        other.span("storage.update", r2, 4, || {});
        t.absorb(other);
        assert_eq!(t.spans[2].parent, NO_PARENT);
        assert_eq!(t.spans[3].parent, 2);
    }
}
