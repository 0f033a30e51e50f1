//! In-memory span recorder and the tracing [`QuerySource`] wrapper.
//!
//! Spans are recorded around the benchmark's own calls into each crate's
//! public functions, kept in memory and written out when the run ends. A
//! span's self time is its duration minus the part of that interval its
//! child spans cover.

use lms_influx::{QueryResult, QuerySource};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id, to pass to its children (`None` when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, by id: its duration minus the length of the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Sum of the self times of `root` and all its descendants. Equals the
/// root's duration exactly when children nest inside their parents and
/// siblings do not overlap.
pub fn subtree_self_sum(spans: &[Span], selfs: &HashMap<SpanId, u64>, root: SpanId) -> u64 {
    let mut children: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.id);
        }
    }
    let mut total = 0;
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        total += selfs.get(&id).copied().unwrap_or(0);
        stack.extend(children.get(&id).into_iter().flatten());
    }
    total
}

/// Durations (or self times, with `selfs`) in nanoseconds of every span
/// named `name`.
pub fn times_of(spans: &[Span], name: &str, selfs: Option<&HashMap<SpanId, u64>>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match selfs {
            Some(selfs) => selfs[&s.id] as f64,
            None => s.duration_ns() as f64,
        })
        .collect()
}

/// A [`QuerySource`] wrapper for dashboard refreshes: counts queries,
/// flags partial answers, and records each query as a child span of
/// `parent`.
pub struct TracedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    pub parent: Option<SpanId>,
    pub queries: usize,
    pub partial: bool,
}

impl<'t, S: QuerySource> TracedSource<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedSource {
            inner,
            tracer,
            parent: None,
            queries: 0,
            partial: false,
        }
    }
}

impl<S: QuerySource> QuerySource for TracedSource<'_, S> {
    fn query_source(&mut self, db: &str, q: &str) -> lms_util::Result<QueryResult> {
        self.queries += 1;
        let inner = &mut self.inner;
        let result = self
            .tracer
            .span("query", self.parent, |_| inner.query_source(db, q));
        if result.as_ref().is_ok_and(|r| r.partial) {
            self.partial = true;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_union() {
        // refresh [0,100): generate [10,50) with queries [12,20) [30,45);
        // render [60,90) with query [61,89).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(1), 12, 20),
            span(3, Some(1), 30, 45),
            span(4, Some(0), 60, 90),
            span(5, Some(4), 61, 89),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 100 - 40 - 30);
        assert_eq!(selfs[&1], 40 - 8 - 15);
        assert_eq!(selfs[&4], 30 - 28);
        assert_eq!(selfs[&2], 8);
        assert_eq!(subtree_self_sum(&spans, &selfs, 0), 100);
        assert_eq!(subtree_self_sum(&spans, &selfs, 1), 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,60) and [90,100) = 60 ns.
        assert_eq!(selfs[&0], 40);
        // Overlap makes the subtree sum exceed the root: the check fails.
        assert_ne!(subtree_self_sum(&spans, &selfs, 0), 100);
    }

    #[test]
    fn recorded_spans_nest() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, |id| {
            tracer.span("inner", id, |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let selfs = self_times(&spans);
        assert_eq!(
            subtree_self_sum(&spans, &selfs, outer.id),
            outer.duration_ns()
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, |id| id), None);
        assert!(tracer.spans().is_empty());
    }
}
