//! In-memory spans around the calls a traced rep makes into each layer.
//!
//! Spans are kept in memory and only serialised (as Chrome trace-event
//! JSON) when the benchmark ends, so recording one costs a clock read
//! and a short lock.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within its tracer.
    pub id: u64,
    /// The span that was open around this one, if any.
    pub parent: Option<u64>,
    /// The layer call this span covers (`sim.run`, `serve.submit`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The request the span belongs to (a sweep id on `serve`).
    pub request: Option<String>,
    /// A small per-thread number, for the trace viewer's rows.
    pub thread: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer whose spans record nothing, for the untraced reps that
    /// share code with traced ones.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: if self.enabled { self.now_ns() } else { 0 },
            request: None,
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, Some(parent));
        f()
    }

    /// Every finished span, ordered by start.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panicked")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// An open span.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    request: Option<String>,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of nested spans.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tags the span with the request it serves.
    pub fn set_request(&mut self, request: &str) {
        self.request = Some(request.to_owned());
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            request: self.request.take(),
            thread: THREAD.with(|t| *t),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// A span's self time: its duration minus the part of it that the union
/// of its children's intervals covers. Children running concurrently on
/// several threads are counted once.
#[must_use]
pub fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (start, end) in children {
        run = match run {
            Some((a, b)) if start <= b => Some((a, b.max(end))),
            Some((a, b)) => {
                covered += b - a;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((a, b)) = run {
        covered += b - a;
    }
    span.duration_ns() - covered
}

/// Total seconds spent in spans named `name`.
#[must_use]
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum();
    ns as f64 / 1e9
}

/// Serialises groups of spans (one per traced rep) as Chrome trace-event
/// JSON, loadable at `ui.perfetto.dev`: one process row per group.
#[must_use]
pub fn chrome_trace(groups: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (label, spans)) in groups.iter().enumerate() {
        let pid = pid + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            json_str(label)
        ));
        for s in spans {
            let mut args = format!("\"id\":{}", s.id);
            if let Some(parent) = s.parent {
                let _ = write!(args, ",\"parent\":{parent}");
            }
            if let Some(request) = &s.request {
                let _ = write!(args, ",\"request\":{}", json_str(request));
            }
            events.push(format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                json_str(s.name),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn json_str(s: &str) -> String {
    icnoc_explore::JsonValue::Str(s.to_owned()).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            request: None,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 90),
            span(4, Some(3), 50, 60), // a grandchild is not the root's child
        ];
        assert_eq!(self_time_ns(&spans, 1), 30);
        assert_eq!(self_time_ns(&spans, 3), 40);
        assert_eq!(self_time_ns(&spans, 4), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two worker threads' jobs under one executor span.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(1), 20, 80),
            span(4, Some(1), 70, 75),
        ];
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 0, 15)];
        assert_eq!(self_time_ns(&spans, 1), 5);
        assert_eq!(self_time_ns(&spans, 9), 0);
    }

    #[test]
    fn tracer_records_nesting_and_requests() {
        let tracer = Tracer::new();
        {
            let root = tracer.span("root", None);
            tracer.time("child", root.id(), || {});
            let mut tagged = tracer.span("tagged", Some(root.id()));
            tagged.set_request("s7");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        assert!(spans
            .iter()
            .filter(|s| s.name != "root")
            .all(|s| s.parent == Some(root.id)));
        let tagged = spans.iter().find(|s| s.name == "tagged").expect("tagged");
        assert_eq!(tagged.request.as_deref(), Some("s7"));
        let json = chrome_trace(&[("rep".to_owned(), spans)]);
        assert!(icnoc_explore::JsonValue::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        tracer.time("child", 0, || {});
        assert!(tracer.spans().is_empty());
    }
}
