//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled [`Tracer`] only runs the closure, so the untraced run and
//! the traced run execute the same code. Spans are kept in a `Vec` and
//! written as one JSON file when the run ends.

use std::time::Instant;

use wikistale_obs::alloc::AllocScope;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, such as `filter` or `train.assoc`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; 0 for spans around set-up and
    /// layer calls.
    pub op: u64,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Highest live heap bytes above the span's start while it ran (0
    /// when nested, since allocator scopes cannot nest).
    pub peak_bytes: u64,
    /// Live heap bytes the span left behind beyond its start.
    pub retained_bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; otherwise a pass-through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Top-level spans also measure
    /// the allocator peak and retained bytes.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let scope = self.open.is_empty().then(AllocScope::begin);
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            op: 0,
            start_ns: self.now_ns(),
            end_ns: 0,
            peak_bytes: 0,
            retained_bytes: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        if let Some(scope) = scope {
            span.peak_bytes = scope.peak_delta() as u64;
            span.retained_bytes = scope.retained_delta() as u64;
        }
        out
    }

    /// Record an already-measured interval as a span of operation `op`.
    pub fn record(&mut self, name: &str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: None,
            op,
            start_ns,
            end_ns,
            peak_bytes: 0,
            retained_bytes: 0,
        });
    }

    /// All spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in seconds of all spans named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"peak_bytes\": {}, \"retained_bytes\": {}}}",
                wikistale_obs::json::escape(&s.name),
                s.op,
                s.start_ns,
                s.end_ns,
                s.peak_bytes,
                s.retained_bytes
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_requests_carry_their_operation() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        let now = Instant::now();
        t.record("request", 3, now, now);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans.iter().map(|s| s.op).collect::<Vec<_>>(), [0, 0, 3]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        wikistale_obs::json::validate(&t.to_json()).unwrap();
    }
}
