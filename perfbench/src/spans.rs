//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented here). A span
//! is named `<layer>.<operation>`; its layer is the part before the first
//! dot. Calls too frequent to record one by one (a cache access, a trace
//! record decode) are folded into per-parent *hot* totals, which count as
//! child time of the span that was open when they ran.
//!
//! Self time of a span is its duration minus the time covered by its
//! child spans and hot totals. Everything stays in memory until
//! [`Tracer::write`] runs at the end of the benchmark.

use obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    request_id: Option<String>,
}

/// Aggregated hot calls under one parent span.
#[derive(Debug, Clone, Default)]
struct Hot {
    ns: u64,
    count: u64,
}

/// Span recorder; a disabled tracer records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    hot: BTreeMap<(Option<SpanId>, &'static str), Hot>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            hot: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_for(name, None, f)
    }

    /// [`Tracer::span`] tagged with a request id; without one, a span
    /// inherits its parent's.
    pub fn span_for<R>(
        &mut self,
        name: &str,
        request_id: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let request_id = request_id
            .map(str::to_string)
            .or_else(|| parent.and_then(|p| self.spans[p].request_id.clone()));
        self.spans.push(Span {
            name: name.to_string(),
            start: Instant::now(),
            end: None,
            parent,
            request_id,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = Some(Instant::now());
        r
    }

    /// Records a finished span measured elsewhere (another thread).
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request_id: Option<&str>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: Some(end.max(start)),
            parent,
            request_id: request_id.map(str::to_string),
        });
        Some(self.spans.len() - 1)
    }

    /// Adds `ns` of hot-call time for `name` under the open span.
    pub fn hot(&mut self, name: &'static str, ns: u64, count: u64) {
        if !self.enabled {
            return;
        }
        let h = self.hot.entry((self.stack.last().copied(), name)).or_default();
        h.ns += ns;
        h.count += count;
    }

    fn duration_ns(s: &Span) -> u64 {
        s.end.map_or(0, |e| e.duration_since(s.start).as_nanos() as u64)
    }

    /// Self time in seconds and span count per span name (hot totals
    /// included under their own names).
    pub fn self_times(&self) -> BTreeMap<String, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += Self::duration_ns(s);
            }
        }
        for ((parent, _), h) in &self.hot {
            if let Some(p) = parent {
                child_ns[*p] += h.ns;
            }
        }
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = Self::duration_ns(s).saturating_sub(child_ns[i]);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += own as f64 * 1e-9;
            e.1 += 1;
        }
        for ((_, name), h) in &self.hot {
            let e = out.entry((*name).to_string()).or_default();
            e.0 += h.ns as f64 * 1e-9;
            e.1 += h.count;
        }
        out
    }

    /// Self time in seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |v| v.0)
    }

    /// Self time per layer (the span-name prefix before the first dot).
    pub fn layer_self_times(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, (s, _)) in self.self_times() {
            let layer = name.split('.').next().unwrap_or("").to_string();
            *out.entry(layer).or_insert(0.0) += s;
        }
        out
    }

    /// Writes every span and hot total as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| Json::Num(t.duration_since(self.epoch).as_secs_f64() * 1e6);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Json::object();
                o.insert("id", Json::Num(i as f64));
                o.insert("name", Json::Str(s.name.clone()));
                o.insert("start_us", us(s.start));
                o.insert("end_us", s.end.map_or(Json::Null, us));
                o.insert("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64)));
                o.insert(
                    "request_id",
                    s.request_id.clone().map_or(Json::Null, Json::Str),
                );
                o
            })
            .collect();
        let hot = self
            .hot
            .iter()
            .map(|((parent, name), h)| {
                let mut o = Json::object();
                o.insert("name", Json::Str((*name).to_string()));
                o.insert("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64)));
                o.insert("total_us", Json::Num(h.ns as f64 / 1e3));
                o.insert("count", Json::Num(h.count as f64));
                o
            })
            .collect();
        let mut doc = Json::object();
        doc.insert("spans", Json::Arr(spans));
        doc.insert("hot", Json::Arr(hot));
        std::fs::write(path, doc.render())
    }
}
