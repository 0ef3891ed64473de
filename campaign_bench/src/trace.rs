//! In-memory spans recorded around the benchmark's own calls into each
//! layer, their self-time arithmetic, and the order statistics the
//! per-layer metrics report.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::metrics::Metrics;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or grouping) name, e.g. `servers` or `case`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Test-case (or fuzz candidate) uuid; 0 outside any case.
    pub case: u64,
    /// Small per-thread index, for reading overlapping spans.
    pub thread: usize,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

fn thread_index() -> usize {
    THREAD.with(|t| match t.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        }
    })
}

/// A growable span log. Worker threads each fill their own log (one per
/// case or candidate) and the driver splices them into the run's log
/// with [`SpanLog::absorb`], so recording never takes a lock.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, case: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            case,
            thread: thread_index(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        case: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, case);
        let out = f();
        self.close(id);
        out
    }

    /// Appends `other`'s spans; its root spans become children of
    /// `parent`. Both logs must share an epoch.
    pub fn absorb(&mut self, other: SpanLog, parent: Option<usize>) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in log order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes one JSON object per span (the trace artifact).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{parent},\"case\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.case, s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel on several
/// threads may overlap each other; the covered part is the length of
/// the union of their intervals (clipped to the parent), so overlap is
/// never subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time (ns) summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

/// Percentiles worth reporting, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile in [`TAIL_CANDIDATES`] that leaves at least
/// ten of `n` samples strictly above its nearest rank, or `None` when
/// even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.9 / 100 * 10_000 reads a hair
    // above 9_990) from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `samples` (sorted in place); 0 when
/// empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[nearest_rank(samples.len(), p) - 1]
}

/// The tail the per-layer `*_p99_us` metrics report: the 99th
/// percentile when at least ten samples lie beyond it, otherwise the
/// highest percentile that has ten beyond it. Returns `(percentile,
/// value)`; `(0, 0)` when there are too few samples for any.
pub fn tail(samples: &mut [u64]) -> (f64, u64) {
    match tail_percentile(samples.len()) {
        Some(p) => {
            let p = p.min(99.0);
            (p, percentile(samples, p))
        }
        None => (0.0, 0),
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sets a layer's `busy` (ms), `p50` and `p99` (µs) metrics from the
/// durations of every span named `span`; returns the percentile the
/// `p99` metric actually reads (see [`tail`]).
pub fn set_timing(
    m: &mut Metrics,
    log: &SpanLog,
    span: &str,
    busy: &str,
    p50: &str,
    p99: &str,
) -> f64 {
    let mut d = log.durations(span);
    m.set(busy, d.iter().sum::<u64>() as f64 / 1e6);
    m.set(p50, percentile(&mut d, 50.0) as f64 / 1e3);
    let (pct, value) = tail(&mut d);
    m.set(p99, value as f64 / 1e3);
    pct
}

/// Whether span `s` descends from span `root` of `log`.
pub fn within(log: &SpanLog, s: &Span, root: usize) -> bool {
    let mut cur = s.parent;
    while let Some(p) = cur {
        if p == root {
            return true;
        }
        cur = log.spans()[p].parent;
    }
    false
}

/// Prints each span name's self time and the two walls the layers are
/// accounted against.
pub fn report_accounting(log: &SpanLog, untraced_ns: f64, traced_ns: f64, threads: usize) {
    eprintln!("self time by span (ms, summed over {threads} worker threads):");
    for (name, ns) in self_time_by_name(log.spans()) {
        eprintln!("  {name:<16} {:>12.3}", ns as f64 / 1e6);
    }
    eprintln!("untraced wall {:.3} ms, traced wall {:.3} ms", untraced_ns / 1e6, traced_ns / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, case: 0, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.values().sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn self_time_counts_overlapping_parallel_children_as_a_union() {
        // Two workers' cases overlap inside one campaign span; a child
        // spilling past its parent is clipped.
        let spans = vec![
            span("campaign", 0, 100, None),
            span("case", 10, 60, Some(0)),
            span("case", 30, 80, Some(0)),
            span("case", 40, 50, Some(0)),
            span("case", 90, 130, Some(0)),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[0], 100 - 70 - 10, "union [10,80) + [90,100)");
        assert_eq!(self_ns[1..], [50, 50, 10, 40]);
    }

    #[test]
    fn absorbed_logs_reparent_their_roots() {
        let epoch = Instant::now();
        let mut run = SpanLog::new(epoch);
        let root = run.open("campaign", None, 0);
        let mut case = SpanLog::new(epoch);
        let c = case.open("case", None, 7);
        case.time("servers", Some(c), 7, || ());
        case.close(c);
        run.absorb(case, Some(root));
        run.close(root);
        let s = run.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].case, 7);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));

        let mut few: Vec<u64> = (1..=200).collect();
        assert_eq!(tail(&mut few), (95.0, 190));
        let mut many: Vec<u64> = (1..=20_000).rev().collect();
        assert_eq!(tail(&mut many), (99.0, 19_800), "p99 columns never read p99.9");
        assert_eq!(tail(&mut [1, 2, 3]), (0.0, 0));
    }

    #[test]
    fn percentile_and_median_use_nearest_rank_and_midpoint() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(percentile(&mut v, 50.0), 3);
        assert_eq!(percentile(&mut v, 100.0), 5);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
