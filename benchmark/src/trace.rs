//! Spans around the calls into each layer, recorded from the harness
//! side: kept in memory, summed into per-layer self times, and written
//! out once as a Chrome trace (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is the span that caused it; spans of one
/// request share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread. A disabled tracer runs the
/// closures and records nothing — the timed passes use that.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: usize,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request: self.request,
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }
}

/// Each span's self time in seconds: its duration minus the part its
/// direct children cover (children of one parent never overlap — the
/// harness is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own.iter_mut().for_each(|t| *t = t.max(0.0));
    own
}

/// Self time summed by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t;
    }
    out
}

/// Total duration of the spans called `name`.
pub fn total_by_name(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        // An empty `f64` sum is -0.0, which would print as "-0".
        .fold(0.0, |a, b| a + b)
}

/// The spans as a Chrome trace: one complete (`"ph":"X"`) event each,
/// timestamps in microseconds, parent and request id under `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            parent,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}}}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100 ms]
        //   dse    [10, 70]
        //     sim  [20, 50]
        //   emit   [70, 90]
        let ms = 1_000_000;
        let spans = vec![
            span(0, None, "request", 0, 100 * ms),
            span(1, Some(0), "dse", 10 * ms, 70 * ms),
            span(2, Some(1), "sim", 20 * ms, 50 * ms),
            span(3, Some(0), "emit", 70 * ms, 90 * ms),
        ];
        let own = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(own[0], 0.020), "request keeps 100 - 60 - 20");
        assert!(close(own[1], 0.030), "dse keeps 60 - 30");
        assert!(close(own[2], 0.030));
        assert!(close(own[3], 0.020));
        assert!(
            close(own.iter().sum::<f64>(), 0.100),
            "self times tile the root"
        );
        let by = self_time_by_name(&spans);
        assert!(close(by["dse"], 0.030));
        assert!(close(total_by_name(&spans, "dse"), 0.060));
        assert!(total_by_name(&spans, "absent").is_sign_positive());
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_trace_lists_every_span_once() {
        let spans = vec![
            span(0, None, "a.b", 0, 2000),
            span(1, Some(0), "c", 500, 1500),
        ];
        let json = chrome_trace("w", &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"a.b\",\"cat\":\"a\""));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
