//! In-memory spans for traced runs.
//!
//! A span is `(name, start, end, parent)`, recorded by the benchmark
//! around its calls into a layer's public functions. Calls made once per
//! explored state or per simulator step are too many to keep one by one;
//! their durations go into per-name sample lists instead, whose
//! percentiles the workloads report. Both are kept in memory and written
//! out once, when the run ends.

use sih_lab::json::{ObjectBuilder, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `claims.e1` or `fuzz.job`.
    pub name: String,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span and sample store for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span; returns `f`'s result.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Duration in seconds of the most recent span named `name`.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Appends per-call durations (ns) recorded outside any span.
    pub fn add_samples(&mut self, name: &'static str, ns: Vec<u64>) {
        self.samples.entry(name).or_default().extend(ns);
    }

    /// Every span, then a count/sum/p50/p99 summary of every sample list.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                ObjectBuilder::new()
                    .field("name", s.name.as_str())
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("parent", s.parent.map_or(Value::Null, Value::from))
                    .build()
            })
            .collect();
        let mut samples = ObjectBuilder::new();
        for (name, xs) in &self.samples {
            let mut sorted = xs.clone();
            samples = samples.field(
                name,
                ObjectBuilder::new()
                    .field("count", xs.len())
                    .field("sum_ns", xs.iter().sum::<u64>())
                    .field("p50_ns", crate::percentile(&mut sorted, 0.5))
                    .field("p99_ns", crate::percentile(&mut sorted, 0.99))
                    .build(),
            );
        }
        ObjectBuilder::new().field("spans", spans).field("samples", samples.build()).build()
    }
}
