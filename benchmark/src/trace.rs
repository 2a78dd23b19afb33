//! In-memory span recorder for the traced run.
//!
//! The benchmark measures each layer from outside: a span brackets a call
//! into a public function of the repository, and run spans come from the
//! executor's own `RunProgress` callbacks. Spans stay in memory until the
//! run ends, then go to `benchmark/out/trace-<workload>.json`.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub workload: &'static str,
    pub iteration: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span store; run spans arrive from executor worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose interval is already known.
    pub fn record(
        &self,
        name: &'static str,
        workload: &'static str,
        iteration: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            name,
            workload,
            iteration,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `body` as a span. The span's id is handed to `body` so that
    /// spans recorded inside can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        workload: &'static str,
        iteration: u32,
        parent: Option<SpanId>,
        body: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start = self.now_ns();
        let id = self.record(name, workload, iteration, parent, start, start);
        let result = body(id);
        let end = self.now_ns();
        self.spans.lock().expect("a tracing thread panicked")[id as usize].end_ns = end;
        result
    }

    /// A copy of every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Children may overlap each other (parallel runs) and
/// may stick out of the parent; overlap is counted once and only the part
/// inside the parent counts.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id as usize];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = parent.start_ns;
    for (start, end) in covered {
        if end > reach {
            union += end - start.max(reach);
            reach = end;
        }
    }
    parent.duration_ns() - union
}

/// Sum of durations of the spans called `name` in one workload iteration.
pub fn total_ns(spans: &[Span], workload: &str, iteration: u32, name: &str) -> u64 {
    named(spans, workload, iteration, name)
        .map(Span::duration_ns)
        .sum()
}

/// Sum of self times of the spans called `name` in one workload iteration.
pub fn total_self_ns(spans: &[Span], workload: &str, iteration: u32, name: &str) -> u64 {
    named(spans, workload, iteration, name)
        .map(|s| self_time_ns(spans, s.id))
        .sum()
}

/// The spans called `name` in one workload iteration.
pub fn named<'a>(
    spans: &'a [Span],
    workload: &'a str,
    iteration: u32,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.workload == workload && s.iteration == iteration && s.name == name)
}

/// Renders spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
             \"iteration\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.workload, s.iteration, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            workload: "w",
            iteration: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 100, 200),
            // Two overlapping children cover [110, 150).
            span(1, Some(0), 110, 140),
            span(2, Some(0), 130, 150),
            // A child nested in the cover adds nothing.
            span(3, Some(0), 115, 120),
            // A disjoint child covers [160, 170).
            span(4, Some(0), 160, 170),
            // A grandchild is its parent's business, not the root's.
            span(5, Some(4), 100, 200),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 4), 0);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 50, 120),
            span(2, Some(0), 190, 260),
            span(3, Some(0), 300, 400),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
    }

    #[test]
    fn span_ids_are_usable_as_parents_before_the_span_ends() {
        let tracer = Tracer::new();
        let child = tracer.span("outer", "w", 3, None, |outer| {
            tracer.span("inner", "w", 3, Some(outer), |inner| inner)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child as usize].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total_ns(&spans, "w", 3, "inner"), spans[1].duration_ns());
        assert_eq!(total_ns(&spans, "w", 2, "inner"), 0);
    }

    #[test]
    fn json_lists_every_field() {
        let text = to_json(&[span(0, None, 1, 2), span(1, Some(0), 1, 2)]);
        assert!(text.contains("\"id\": 1, \"parent\": 0, \"name\": \"s\", \"workload\": \"w\""));
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"start_ns\": 1, \"end_ns\": 2"));
    }
}
