//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! A disabled recorder costs one branch per call and keeps nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.try_decode_step`.
    pub name: String,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to, where one exists.
    pub request: Option<usize>,
    /// Counts taken at the same boundaries (name, value).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Seconds between start and end.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the recorder started.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, request: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now();
        let idx = self.push(name, start, start, self.open.last().copied(), request);
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` with the counts taken at its end.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn end(&mut self, id: SpanId, counts: &[(&str, f64)]) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.counts = counts.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    }

    /// Times `f` as a span and returns its result with the span's duration
    /// (the duration is measured even when tracing is off).
    pub fn time<R>(
        &mut self,
        name: &str,
        request: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, request);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id, &[]);
        (r, secs)
    }

    /// Records an already-finished interval, given in the recorder's clock,
    /// as a child of `parent`.
    pub fn record(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: SpanId,
        request: Option<usize>,
    ) {
        if self.enabled {
            self.push(name, start, end, parent.0, request);
        }
    }

    fn push(
        &mut self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            request,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let counts: Vec<String> = sp
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
                .collect();
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \
                 \"request\": {}, \"counts\": {{{}}}}}{}",
                sp.name,
                json_num(sp.start),
                json_num(sp.end),
                opt(sp.parent),
                opt(sp.request),
                counts.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," },
            );
        }
        s.push(']');
        s
    }
}

/// A finite JSON number (non-finite values, which JSON cannot hold, as 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Self time of span `idx`: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (concurrent
/// requests under one serve call) are counted once.
///
/// # Panics
///
/// Panics if `idx` is out of range.
#[must_use]
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let me = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.duration() - covered
}

/// Total self time and span count per span name, sorted by name.
#[must_use]
pub fn self_times_by_name(spans: &[Span]) -> Vec<(String, f64, usize)> {
    let mut out: Vec<(String, f64, usize)> = Vec::new();
    for i in 0..spans.len() {
        let t = self_time(spans, i);
        match out.iter_mut().find(|(n, _, _)| *n == spans[i].name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => out.push((spans[i].name.clone(), t, 1)),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
