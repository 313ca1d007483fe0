//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public API: its name, start
//! and end (nanoseconds since the recorder was created), the span that
//! caused it, and the operation it belongs to. Spans stay in memory and
//! are written out once, when the run ends. A disabled recorder runs
//! the closures without reading the clock, so the untraced run shares
//! the same code without paying for spans.

use std::fmt::Write as _;

use mfti_numeric::diag::Stopwatch;

use crate::report::median;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; `enabled = false` records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans name as their parent; returns its
    /// index (`None` when disabled).
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, op, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Spans called `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration (ms) of the spans called `name`; 0 when the
    /// layer never ran on this workload.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.named(name).map(Span::ms).collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}
