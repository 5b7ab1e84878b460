//! In-memory spans recorded around calls into the workspace's layers.
//!
//! The benchmark never instruments the program itself: every span wraps a
//! call the benchmark makes into one crate's public functions. A span's
//! layer is the part of its name before the first `.` (`core.filter` →
//! `core`), and a layer's *self time* is its spans' durations minus the
//! time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The query, batch or operation the span served.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans in memory; nothing is written until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }
}

impl Tracer {
    /// Tag every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// the union of its direct children covers. Children may overlap each other
/// (concurrent calls under one parent) or outlast the parent; overlapping
/// time is subtracted once and only the part inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many spans, their summed duration and summed self
/// time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += own;
    }
    out
}

/// Summed self time per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,60).
        let spans = vec![
            span("core.query", 0, 100, None),
            span("pagestore.read", 10, 40, Some(0)),
            span("bregman.kernel", 15, 25, Some(1)),
            span("core.select", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["core"], 70);
        assert_eq!(layers["pagestore"], 20);
        assert_eq!(layers["bregman"], 10);
        assert_eq!(layers.values().sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two concurrent children [10,50) and [30,70) cover [10,70) = 60.
        let spans = vec![
            span("engine.shard_batch", 0, 100, None),
            span("index.run", 10, 50, Some(0)),
            span("index.run", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // A child that started before and ends after its parent covers it
        // entirely; nested children of children do not count twice.
        let spans = vec![
            span("core.refine", 10, 20, None),
            span("pagestore.read", 5, 30, Some(0)),
            span("bregman.kernel", 12, 14, Some(1)),
            span("core.select", 0, 4, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 0);
        assert_eq!(selfs[1], 23);
        assert_eq!(selfs[3], 4);
    }

    #[test]
    fn contained_and_adjacent_children_merge() {
        let spans = vec![
            span("core.filter", 0, 100, None),
            span("bbtree.range", 10, 60, Some(0)),
            span("bbtree.range", 20, 30, Some(0)),
            span("bbtree.range", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["bbtree.range"].count, 3);
        assert_eq!(totals["bbtree.range"].total_ns, 70);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut tracer = Tracer::default();
        tracer.set_request(7);
        let outer = tracer.enter("core.query");
        let inner = tracer.time("core.bound", tracer_free_work);
        assert_eq!(inner, 42);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    fn tracer_free_work() -> u64 {
        std::hint::black_box(42)
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::default();
        let a = tracer.enter("core.a");
        let _b = tracer.enter("core.b");
        tracer.exit(a);
    }
}
