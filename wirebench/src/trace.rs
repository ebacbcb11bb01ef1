//! In-memory spans recorded from the benchmark's own code around calls
//! into each layer's public entry points. Nothing is instrumented inside
//! the program: a span is the wall time of one library call (or one wire
//! round trip) made by the benchmark.
//!
//! Every span carries its name, start and end (nanoseconds since the
//! trace began), the index of its parent span, and the id of the request
//! it belongs to. Each client thread owns a [`Tracer`]; the threads'
//! spans are merged and written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    /// Index (within the same tracer) of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder plus named counters.
pub struct Tracer {
    origin: Instant,
    pub track: &'static str,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
    /// Derived per-request values (e.g. wire time minus handle time, in
    /// nanoseconds) and per-event counts.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    next_req: u64,
}

impl Tracer {
    pub fn new(origin: Instant, track: &'static str) -> Tracer {
        Tracer {
            origin,
            track,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            next_req: 0,
        }
    }

    /// A fresh request id for this tracer's track.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f`, recording it as a span; returns its result and the span
    /// index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, req, parent, start, end))
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Records one observation of `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn dur_ns(&self, span: usize) -> u64 {
        self.spans[span].dur_ns()
    }
}

/// The merged spans and counters of every tracer in a run.
#[derive(Default)]
pub struct Trace {
    tracks: Vec<Tracer>,
}

impl Trace {
    pub fn add(&mut self, t: Tracer) {
        self.tracks.push(t);
    }

    /// Durations (in nanoseconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.tracks
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Sum of counter `name` over every track.
    pub fn counter(&self, name: &str) -> f64 {
        self.tracks
            .iter()
            .filter_map(|t| t.counts.get(name))
            .fold(0.0, |a, b| a + b)
    }

    /// Every observation of sample `name` over every track.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.tracks
            .iter()
            .filter_map(|t| t.samples.get(name))
            .flatten()
            .copied()
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Writes one JSON object per span (and one per counter) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for t in &self.tracks {
            for s in &t.spans {
                let line = Json::obj()
                    .set("track", t.track)
                    .set("name", s.name)
                    .set("req", s.req)
                    .set("parent", s.parent)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns);
                writeln!(out, "{line}")?;
            }
            for (name, values) in &t.samples {
                let line = Json::obj().set("track", t.track).set("sample", *name).set(
                    "values",
                    values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                );
                writeln!(out, "{line}")?;
            }
            for (name, v) in &t.counts {
                let line = Json::obj()
                    .set("track", t.track)
                    .set("counter", *name)
                    .set("value", *v);
                writeln!(out, "{line}")?;
            }
        }
        out.flush()
    }
}
