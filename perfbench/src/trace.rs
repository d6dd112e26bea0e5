//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing here reaches inside the program: a span starts
//! and ends at a call boundary the benchmark owns (or, for the oracle,
//! at the boundary of the wrapper the benchmark hands to the sampler).
//!
//! Spans are kept in memory while the run measures and written out as
//! JSON lines when it ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    /// The request this span belongs to; spans of one request share it.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of every span carrying one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder. Recording takes one lock per span; the time spent
/// inside [`Tracer::record`] is itself accumulated so the run can
/// report what tracing cost.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    overhead_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Reserves the id of a span that is about to start, so its
    /// children can name it as their parent before it ends.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves `n` consecutive span ids and returns the first.
    pub fn reserve(&self, n: u64) -> u64 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let t = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
        self.add_overhead(t.elapsed());
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn span<T>(
        &self,
        parent: u64,
        name: &'static str,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, request, start, Instant::now());
        out
    }

    /// Charges time spent on tracing bookkeeping outside `record`.
    pub fn add_overhead(&self, d: Duration) {
        self.overhead_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_ns.load(Ordering::Relaxed))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name total and self time. Self time is the span's interval
/// minus the union of its children's intervals (clipped to it), so
/// overlapping children — parallel work under one parent — are not
/// subtracted twice.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.total_ns += s.duration_ns();
        e.self_ns += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "run", 0, 100),
            // two overlapping children cover [10, 50]; one spills past
            // the parent and is clipped at 100
            span(2, 1, "oracle", 10, 40),
            span(3, 1, "oracle", 30, 50),
            span(4, 1, "oracle", 90, 120),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["run"].total_ns, 100);
        assert_eq!(t["run"].self_ns, 100 - 40 - 10);
        assert_eq!(t["oracle"].total_ns, 30 + 20 + 30);
        assert_eq!(t["oracle"].self_ns, 30 + 20 + 30);
    }

    #[test]
    fn recorded_spans_nest_under_their_parent() {
        let tracer = Tracer::new();
        let inner = tracer.span(0, "outer", 7, |id| {
            tracer.span(id, "inner", 7, |_| std::hint::black_box(3) + 1)
        });
        assert_eq!(inner, 4);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(tracer.overhead() > Duration::ZERO);
    }
}
