//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Every span of one request shares the request id;
//! probes (extra calls that price one layer on its own) are recorded as
//! children of the request that triggered them. Nothing is written until
//! [`Tracer::dump`], after the timed phase.
//!
//! When tracing is off every method is a branch and a return, so the
//! untraced run pays nothing measurable.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::Samples;

/// Spans written out in full; beyond this only the per-name summary is.
const DUMP_LIMIT: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new request.
    pub fn request(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        debug_assert!(self.open.is_empty(), "request opened inside a span");
        self.next_request += 1;
        self.push(name)
    }

    /// Open a span under the innermost open span, in the current request.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.push(name)
    }

    fn push(&mut self, name: &'static str) -> SpanId {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request: self.next_request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span (spans close innermost first).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in seconds (0 when tracing is off — probes only run when it is on).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.exit(id);
        (r, if self.enabled { secs } else { 0.0 })
    }

    /// Durations of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push((span.end_ns - span.start_ns) as f64 * 1e-9);
        }
        s
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The span dump: a per-name summary (count, total and self time) and
    /// the spans themselves as `[id, parent, request, name, start_ns,
    /// dur_ns, self_ns]` rows (`parent` = -1 for a request's root).
    pub fn dump(&self) -> Json {
        let self_ns = self.self_times();
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, &own) in self.spans.iter().zip(&self_ns) {
            let e = summary.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += own;
        }
        let summary = Json::Arr(
            summary
                .into_iter()
                .map(|(name, (count, total, own))| {
                    Json::obj()
                        .with("name", name)
                        .with("count", count)
                        .with("total_ms", total as f64 * 1e-6)
                        .with("self_ms", own as f64 * 1e-6)
                })
                .collect(),
        );
        let rows = self
            .spans
            .iter()
            .zip(&self_ns)
            .enumerate()
            .take(DUMP_LIMIT)
            .map(|(i, (s, &own))| {
                Json::Arr(vec![
                    Json::Int(i as i64),
                    Json::Int(s.parent.map_or(-1, |p| p as i64)),
                    Json::Int(s.request as i64),
                    Json::from(s.name),
                    Json::Int(s.start_ns as i64),
                    Json::Int((s.end_ns - s.start_ns) as i64),
                    Json::Int(own as i64),
                ])
            })
            .collect();
        Json::obj()
            .with("spans_recorded", self.spans.len())
            .with("spans_written", self.spans.len().min(DUMP_LIMIT))
            .with("summary", summary)
            .with("columns", "id,parent,request,name,start_ns,dur_ns,self_ns")
            .with("spans", Json::Arr(rows))
    }
}
