//! In-memory spans for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer's
//! public function. Spans live in memory while the run measures and are
//! written out once, at the end. A layer's self time is its spans' time
//! minus the part of each span that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (one analysis or one daemon request) the span serves.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one thread, nested by an explicit open-span stack.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close without an open span");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, request);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Appends another recorder's spans, re-pointing their parent indices.
pub fn append(into: &mut Vec<Span>, from: &[Span]) {
    let offset = into.len();
    into.extend(from.iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..s.clone()
    }));
}

/// Total length of the union of `intervals` clipped to `[from, to)`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = from;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(to);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (children are clipped to the parent, and
/// overlapping children are counted once).
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
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Summed self time per span name, in milliseconds, over the spans in
/// `range` (`own` is [`self_times`] of all `spans`).
pub fn self_ms_by_name(
    spans: &[Span],
    own: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for i in range {
        *out.entry(spans[i].name).or_insert(0.0) += own[i] as f64 / 1e6;
    }
    out
}

/// Renders spans as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            // A grandchild is covered by its parent `a`, not by `pass`.
            span("c", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("pass", 1, || {});
        let outer = rec.open("pass", 2);
        rec.span("layer", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!(spans[2].request, 2);
        let own = self_times(spans);
        assert_eq!(own[outer] + own[2], spans[outer].duration_ns());
        let by_name = self_ms_by_name(spans, &own, 0..spans.len());
        assert!(by_name["layer"] >= 2.0);

        let mut merged = spans.to_vec();
        append(&mut merged, spans);
        assert_eq!(merged[5].parent, Some(outer + 3));
    }
}
