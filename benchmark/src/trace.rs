//! Spans recorded by the benchmark's own code around its calls into each layer.
//!
//! A traced run pushes `{id, parent, request, name, start_ns, end_ns}` records
//! into a vector allocated before the first measured operation and writes them
//! out once, at exit. Nothing inside the measured crates is instrumented — that
//! is a later change — so a span's resolution is one public call.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; spans of one served
/// request share `request` (its correlation id + 1; 0 = not part of a request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier (index into the span vector + 1).
    pub id: u32,
    /// Identifier of the causing span, 0 for none.
    pub parent: u32,
    /// Request identifier shared by every span of one request, 0 for none.
    pub request: u64,
    /// `layer.operation[.method]`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Optional ` key=value` attributes (empty for almost every span, and an
    /// empty `String` owns no heap memory).
    pub attrs: String,
}

/// The in-memory span sink. Disabled, every method is a branch and nothing else.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts now. When `enabled`, room for `capacity`
    /// spans is allocated up front; spans beyond it are counted and dropped
    /// rather than growing the vector inside a measured phase.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
            dropped: 0,
        }
    }

    /// `instant` on the tracer's clock.
    pub fn ns(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from timestamps the caller already took (the
    /// measured loops read the clock for their own samples anyway, so tracing
    /// them adds a vector push and no clock read). Returns the span id, 0 when
    /// disabled or full.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns, attrs: String::new() });
        id
    }

    /// Opens a span now; [`Tracer::close`] ends it. For the coarse phases.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, 0, now, now)
    }

    /// Ends a span opened with [`Tracer::open`] (a no-op for id 0).
    pub fn close(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = now;
        }
    }

    /// Attaches ` key=value` attributes to a span (a no-op for id 0).
    pub fn set_attrs(&mut self, id: u32, attrs: String) {
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            span.attrs = attrs;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the preallocated vector.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"attrs\": \"{}\"}}{comma}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.attrs.trim()
            )?;
        }
        writeln!(out, "]")?;
        // A dropped BufWriter swallows write errors; surface them.
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (concurrent work, or a
/// reconstructed span that leans into its sibling) are counted once, and a
/// child reaching outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.checked_sub(1).and_then(|p| spans.get(p as usize)) {
            let (start, end) = (span.start_ns.max(parent.start_ns), span.end_ns.min(parent.end_ns));
            if start < end {
                children[parent.id as usize - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > frontier {
                    covered += end - start.max(frontier);
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many spans, their total duration and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans carrying the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Aggregates [`self_times`] by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns - span.start_ns;
        entry.self_ns += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 0, name, start_ns, end_ns, attrs: String::new() }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, "run", 0, 100),
            span(2, 1, "a", 10, 40),
            // Overlaps `a` on [30, 40): the union [10, 60) covers 50, not 60.
            span(3, 1, "b", 30, 60),
            // Nested inside `b`: a grandchild never touches `run`'s self time.
            span(4, 3, "c", 35, 55),
            // Sticks out past the parent's end: clipped to [90, 100).
            span(5, 1, "d", 90, 130),
            // Entirely inside an earlier child's interval: adds nothing.
            span(6, 1, "e", 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 10, 20, 40, 8]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["run"], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(totals["b"], NameTotals { count: 1, total_ns: 30, self_ns: 10 });
    }

    #[test]
    fn disabled_or_full_tracer_records_nothing() {
        let now = Instant::now();
        let mut off = Tracer::new(false, 8);
        assert_eq!(off.record("x", 0, 0, now, now), 0);
        off.close(0);
        assert!(off.spans().is_empty());

        let mut tiny = Tracer::new(true, 1);
        let first = tiny.open("x", 0);
        assert_eq!(first, 1);
        assert_eq!(tiny.record("y", first, 0, now, now), 0);
        assert_eq!((tiny.spans().len(), tiny.dropped()), (1, 1));
    }
}
