//! What a child prints and the parent reads back: one `key value...`
//! record per line, so a child that dies half-way still leaves every
//! request it finished on record.

use crate::trace::Span;
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub label: String,
    pub ok: bool,
    pub wall_s: f64,
    pub detail: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub design: String,
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one child reported.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassReport {
    pub requests: Vec<Request>,
    /// CPU seconds of the child across its timed region.
    pub cpu_s: f64,
    /// Seconds from process start to the first timed request.
    pub setup_s: f64,
    /// What the child's host times are multiplied by to read as on the
    /// reference machine (`speed.rs`); `None` if it did not get that far.
    pub speed: Option<f64>,
    pub rss_kb: u64,
    pub values: BTreeMap<String, f64>,
    pub checks: Vec<Check>,
    pub rows: Vec<String>,
    pub spans: Vec<Span>,
    /// The child reached its last line.
    pub done: bool,
}

/// Reads a child's output. Lines that are not records (a library's stray
/// print, a truncated last line) are skipped, never fatal.
pub fn parse(text: &str) -> PassReport {
    let mut out = PassReport::default();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut words = rest.split(' ');
        let mut word = || words.next().unwrap_or("");
        match key {
            "req" => {
                let (label, status) = (word().to_string(), word());
                let Ok(wall_s) = word().parse() else { continue };
                out.requests.push(Request {
                    label,
                    ok: status == "ok",
                    wall_s,
                    detail: words.collect::<Vec<_>>().join(" "),
                });
            }
            "check" => {
                let (design, name, status) = (word().to_string(), word().to_string(), word());
                out.checks.push(Check {
                    design,
                    name,
                    ok: status == "ok",
                    detail: words.collect::<Vec<_>>().join(" "),
                });
            }
            "value" => {
                let name = word().to_string();
                if let Ok(v) = word().parse() {
                    out.values.insert(name, v);
                }
            }
            "span" => {
                let id = word().parse();
                let parent = word().parse().ok();
                let (request, name) = (word().parse(), word().to_string());
                let (start_ns, end_ns) = (word().parse(), word().parse());
                if let (Ok(id), Ok(request), Ok(start_ns), Ok(end_ns)) =
                    (id, request, start_ns, end_ns)
                {
                    out.spans.push(Span {
                        id,
                        parent,
                        request,
                        name,
                        start_ns,
                        end_ns,
                    });
                }
            }
            "row" => out.rows.push(rest.to_string()),
            "cpu_s" => out.cpu_s = rest.parse().unwrap_or(0.0),
            "setup_s" => out.setup_s = rest.parse().unwrap_or(0.0),
            "speed" => out.speed = rest.parse().ok(),
            "rss_kb" => out.rss_kb = rest.parse().unwrap_or(0),
            "done" => out.done = true,
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_record_kind_and_skips_noise() {
        let text = "\
req gemm@32 ok 0.012500000
some library chatter
req bicg@40 fail 0.000000000 input-lock mismatch: bicg@40 is not in inputs.lock
cpu_s 1.2300
setup_s 0.004500000
speed 0.912000000
value cache.hits 42
value broken
check gemm@32 memory_sim_eq_reference ok
check gemm@32 fits_device FAIL dsp 999 ff 1 lut 1
row gemm@32 est_cycles=1440 speedup=91.02
span 0 - 3 request 100 900
span 1 0 3 dse.auto_dse 200 800
rss_kb 20480
done
";
        let r = parse(text);
        assert_eq!(r.requests.len(), 2);
        assert!(r.requests[0].ok && (r.requests[0].wall_s - 0.0125).abs() < 1e-12);
        assert!(!r.requests[1].ok && r.requests[1].detail.starts_with("input-lock mismatch"));
        assert_eq!(r.cpu_s, 1.23);
        assert_eq!(r.setup_s, 0.0045);
        assert_eq!(r.speed, Some(0.912));
        assert_eq!(r.rss_kb, 20480);
        assert_eq!(r.values.len(), 1);
        assert_eq!(r.values["cache.hits"], 42.0);
        assert!(r.checks[0].ok && !r.checks[1].ok);
        assert_eq!(r.checks[1].detail, "dsp 999 ff 1 lut 1");
        assert_eq!(r.rows, vec!["gemm@32 est_cycles=1440 speedup=91.02"]);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].name, "dse.auto_dse");
        assert!(r.done);
    }

    #[test]
    fn a_child_that_died_is_not_done() {
        let r = parse("req gemm@32 ok 0.01\nreq bicg@32 o");
        assert_eq!(r.requests.len(), 1);
        assert!(!r.done);
    }
}
