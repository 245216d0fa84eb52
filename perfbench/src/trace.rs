//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the workspace crates is instrumented: a span opens just
//! before the benchmark calls a public function of a layer and closes when
//! the call returns. Spans stay in memory; the per-layer metrics and the
//! summary printed at the end of a traced run are computed from them.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), where a span's self time
    /// is its duration minus the part of it its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let self_times = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent. Children may overlap (work run
/// on several threads at once), so their durations are not simply summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            for kid in &mut kids {
                kid.0 = kid.0.clamp(span.start_ns, span.end_ns);
                kid.1 = kid.1.clamp(span.start_ns, span.end_ns);
            }
            span.duration_ns() - union_ns(&mut kids)
        })
        .collect()
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter().filter(|(s, e)| e > s) {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Checks the self-time accounting on a hand-built tree whose children
/// overlap each other and stick out of their parent.
pub fn self_test() -> Result<(), String> {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
    };
    let spans = vec![
        span("root", 0, 100, None),
        // Two overlapping children covering [10, 50) together.
        span("a", 10, 40, Some(0)),
        span("b", 30, 50, Some(0)),
        // A child nested inside "a", and one overlapping it exactly.
        span("a.x", 12, 20, Some(1)),
        span("a.y", 12, 20, Some(1)),
        // A disjoint child that starts before its parent ends and runs on.
        span("c", 90, 120, Some(0)),
        // An empty child.
        span("d", 60, 60, Some(0)),
    ];
    let got = self_times(&spans);
    // root: 100 - |[10,50) ∪ [90,100)| = 100 - 50 = 50.
    // a: 30 - 8 = 22; b: 20; a.x, a.y: 8 each; c: 30; d: 0.
    let want = vec![50, 22, 20, 8, 8, 30, 0];
    if got != want {
        return Err(format!(
            "span self-time accounting: got {got:?}, want {want:?}"
        ));
    }
    let mut disjoint = [(5, 7), (0, 2), (1, 3), (7, 9)];
    if union_ns(&mut disjoint) != 7 {
        return Err("interval union miscounted touching/overlapping intervals".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        self_test().unwrap();
    }

    #[test]
    fn tracer_totals_match_recorded_spans() {
        let mut tracer = Tracer::new();
        let root = tracer.open("round", None);
        tracer.time("work", Some(root), || std::hint::black_box(1 + 1));
        tracer.close(root);
        let summary = tracer.summary();
        assert_eq!(summary["round"].0, 1);
        assert_eq!(summary["work"].0, 1);
        assert!(summary["round"].1 >= summary["work"].1);
        assert_eq!(summary["round"].2, summary["round"].1 - summary["work"].1);
    }
}
