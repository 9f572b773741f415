//! Shared experiment machinery: framework evaluation and table rendering.

use pom::baselines::{self, BaselineResult};
use pom::{auto_dse, CompileOptions, DeviceSpec, Function, GroupConfig};
use std::fmt::Write as _;

/// One framework's results on one benchmark — the columns of Table III.
#[derive(Clone, Debug)]
pub struct FrameworkRow {
    /// Framework name.
    pub framework: String,
    /// Latency in cycles.
    pub latency: u64,
    /// Speedup over the unoptimized baseline.
    pub speedup: f64,
    /// DSP usage.
    pub dsp: u64,
    /// FF usage.
    pub ff: u64,
    /// LUT usage.
    pub lut: u64,
    /// Power proxy (W).
    pub power: f64,
    /// Achieved initiation interval (max over pipelined loops; 0 = none).
    pub ii: u64,
    /// Achieved tile sizes / unroll factors per nest.
    pub tiles: String,
    /// Parallelism degree (tile product / II).
    pub parallelism: f64,
    /// Strategy/DSE wall-clock seconds.
    pub time_s: f64,
}

fn row_from_baseline(b: &BaselineResult, baseline_latency: u64) -> FrameworkRow {
    let q = &b.compiled.qor;
    let ii = b.achieved_ii();
    FrameworkRow {
        framework: b.name.to_string(),
        latency: q.latency,
        speedup: baseline_latency as f64 / q.latency.max(1) as f64,
        dsp: q.resources.dsp,
        ff: q.resources.ff,
        lut: q.resources.lut,
        power: q.power,
        ii,
        tiles: "-".into(),
        parallelism: 0.0,
        time_s: b.time.as_secs_f64(),
    }
}

fn tiles_string(groups: &[GroupConfig]) -> String {
    groups
        .iter()
        .map(|g| {
            let ts: Vec<String> = g.tiles.iter().map(|t| t.to_string()).collect();
            format!("[{}]", ts.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Evaluates POM on a kernel.
pub fn run_pom(f: &Function, opts: &CompileOptions) -> FrameworkRow {
    let base = baselines::baseline_compiled(f, opts);
    let r = auto_dse(f, opts).expect("DSE compiles");
    let q = &r.compiled.qor;
    FrameworkRow {
        framework: "POM".into(),
        latency: q.latency,
        speedup: q.speedup_over(&base.qor),
        dsp: q.resources.dsp,
        ff: q.resources.ff,
        lut: q.resources.lut,
        power: q.power,
        ii: r.achieved_iis().into_iter().max().unwrap_or(0),
        tiles: tiles_string(&r.groups),
        parallelism: r.parallelism(),
        time_s: r.dse_time.as_secs_f64(),
    }
}

/// Evaluates the ScaleHLS-like baseline on a kernel.
pub fn run_scalehls(f: &Function, opts: &CompileOptions, size: usize) -> FrameworkRow {
    let base = baselines::baseline_compiled(f, opts);
    let b = baselines::scalehls_like(f, opts, size);
    row_from_baseline(&b, base.qor.latency)
}

/// Evaluates the POLSCA-like baseline on a kernel.
pub fn run_polsca(f: &Function, opts: &CompileOptions) -> FrameworkRow {
    let base = baselines::baseline_compiled(f, opts);
    let b = baselines::polsca_like(f, opts);
    row_from_baseline(&b, base.qor.latency)
}

/// Evaluates the Pluto-like baseline on a kernel.
pub fn run_pluto(f: &Function, opts: &CompileOptions) -> FrameworkRow {
    let base = baselines::baseline_compiled(f, opts);
    let b = baselines::pluto_like(f, opts);
    row_from_baseline(&b, base.qor.latency)
}

/// Default options on the paper's device.
pub fn paper_options() -> CompileOptions {
    CompileOptions {
        device: DeviceSpec::xc7z020(),
        ..Default::default()
    }
}

/// A plain-text aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }
}

/// One typed value of a [`Report`]: a table cell or a summary value.
/// `List` and `Obj` nest (an anytime curve, a counter block).
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Text; escaped in JSON.
    Str(String),
    /// A count.
    Int(u64),
    /// A measurement: three decimals in the table, six in JSON (`null`
    /// when not finite).
    Float(f64),
    /// A verdict.
    Bool(bool),
    /// A JSON array.
    List(Vec<Cell>),
    /// A JSON object.
    Obj(Vec<(&'static str, Cell)>),
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Str(v.to_string())
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

/// `{"key": value, ...}` on one line.
fn json_object(members: &[(&'static str, Cell)]) -> String {
    let members: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.json()))
        .collect();
    format!("{{{}}}", members.join(", "))
}

impl Cell {
    /// The JSON rendering of the value.
    fn json(&self) -> String {
        match self {
            Cell::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) if !v.is_finite() => "null".to_string(),
            Cell::Float(v) => format!("{v:.6}"),
            Cell::Bool(v) => v.to_string(),
            Cell::List(items) => {
                let items: Vec<String> = items.iter().map(Cell::json).collect();
                format!("[{}]", items.join(", "))
            }
            Cell::Obj(members) => json_object(members),
        }
    }
}

/// The table rendering of the value: text unquoted, measurements to
/// three decimals, everything else as in JSON.
impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Str(s) => f.write_str(s),
            Cell::Float(v) => write!(f, "{v:.3}"),
            other => f.write_str(&other.json()),
        }
    }
}

/// One column of an audit's typed row `R`, stated once: the JSON key,
/// the table header and how to read the value off a row.
pub struct Column<R> {
    /// JSON key.
    pub key: &'static str,
    /// Table header; empty keeps the column out of the table (JSON only).
    pub header: &'static str,
    /// Reads the column's value off a row.
    pub get: fn(&R) -> Cell,
}

/// [`Column`] constructor, short enough for one column per line.
pub const fn col<R>(key: &'static str, header: &'static str, get: fn(&R) -> Cell) -> Column<R> {
    Column { key, header, get }
}

/// What every audit (`pomc bench-*`, `pomc verify-all`) hands the
/// driver: rows under named columns, summary values, nested sections and
/// the gate's verdict. The aligned table ([`Report::render`]) and the
/// JSON file ([`Report::to_json`]) are both derived from it, so a field
/// is named once, in its audit's column list.
#[derive(Clone, Debug)]
pub struct Report {
    title: String,
    rows_key: &'static str,
    headers: Vec<&'static str>,
    rows: Vec<Vec<(&'static str, Cell)>>,
    /// Whole-run values, in JSON order after the rows.
    pub summary: Vec<(&'static str, Cell)>,
    /// Nested reports (`bench-dse --beam`'s `"beam"` object).
    pub sections: Vec<(&'static str, Report)>,
    /// Gate failures, one message each; empty = the audit passed.
    pub fails: Vec<String>,
}

impl Report {
    /// A report of `rows` under `columns`; `rows_key` names the row
    /// array in JSON. Summary, sections and fails start empty.
    pub fn new<R>(title: &str, rows_key: &'static str, columns: &[Column<R>], rows: &[R]) -> Self {
        let cells = |r: &R| columns.iter().map(|c| (c.key, (c.get)(r))).collect();
        Report {
            title: title.to_string(),
            rows_key,
            headers: columns.iter().map(|c| c.header).collect(),
            rows: rows.iter().map(cells).collect(),
            summary: Vec::new(),
            sections: Vec::new(),
            fails: Vec::new(),
        }
    }

    /// The human-readable view: the aligned table of the columns that
    /// have a header, the summary on one line, then each section.
    pub fn render(&self) -> String {
        let shown = |i: &usize| !self.headers[*i].is_empty();
        let shown: Vec<usize> = (0..self.headers.len()).filter(shown).collect();
        let headers: Vec<&str> = shown.iter().map(|&i| self.headers[i]).collect();
        let mut t = Table::new(&self.title, &headers);
        for r in &self.rows {
            let cells: Vec<String> = shown.iter().map(|&i| r[i].1.to_string()).collect();
            t.row(&cells);
        }
        let mut out = t.render();
        let summary: Vec<String> = self
            .summary
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        if !summary.is_empty() {
            let _ = writeln!(out, "{}", summary.join(", "));
        }
        for (_, s) in &self.sections {
            out.push_str(&s.render());
        }
        out
    }

    /// The machine-readable view: `{rows_key: [row objects], summary...,
    /// sections..., "all_passed": fails.is_empty()}`, one row per line.
    pub fn to_json(&self) -> String {
        self.json_at(0) + "\n"
    }

    fn json_at(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let row = |r: &Vec<(&'static str, Cell)>| format!("\n{pad}  {}", json_object(r));
        let rows: Vec<String> = self.rows.iter().map(row).collect();
        let mut members = vec![format!(
            "\"{}\": [{}\n{pad}]",
            self.rows_key,
            rows.join(",")
        )];
        for (k, v) in &self.summary {
            members.push(format!("\"{k}\": {}", v.json()));
        }
        for (k, s) in &self.sections {
            members.push(format!("\"{k}\": {}", s.json_at(depth + 1)));
        }
        if depth == 0 {
            members.push(format!("\"all_passed\": {}", self.fails.is_empty()));
        }
        let sep = format!(",\n{pad}");
        format!("{{\n{pad}{}\n{}}}", members.join(&sep), "  ".repeat(depth))
    }
}

/// Formats a speedup like the paper ("575.9x").
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.1}x")
}

/// Formats a resource count with its utilization percentage.
pub fn fmt_util(v: u64, total: u64) -> String {
    format!("{v} ({:.0}%)", 100.0 * v as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn report_derives_table_and_json_from_one_column_list() {
        struct Row(&'static str, u64, f64, bool);
        const COLUMNS: &[Column<Row>] = &[
            col("kernel", "Kernel", |r| r.0.into()),
            col("cycles", "Cycles", |r| r.1.into()),
            col("ratio", "Ratio", |r| r.2.into()),
            col("hidden", "", |r| r.3.into()),
        ];
        let rows = [
            Row("a \"b\"\\\n\t", 7, 0.5, true),
            Row("c", 9, f64::NAN, false),
        ];
        let mut report = Report::new("demo", "rows", COLUMNS, &rows);
        report.summary = vec![("size", 8usize.into())];
        let mut nested = Report::new("inner", "items", COLUMNS, &rows[1..]);
        nested.summary = vec![("curve", Cell::List(vec![1u64.into(), 0.25.into()]))];
        report.sections.push(("inner", nested));
        assert_eq!(
            report.to_json(),
            "{\n  \"rows\": [\n    \
             {\"kernel\": \"a \\\"b\\\"\\\\\\n\\u0009\", \"cycles\": 7, \"ratio\": 0.500000, \"hidden\": true},\n    \
             {\"kernel\": \"c\", \"cycles\": 9, \"ratio\": null, \"hidden\": false}\n  ],\n  \
             \"size\": 8,\n  \
             \"inner\": {\n    \"items\": [\n      \
             {\"kernel\": \"c\", \"cycles\": 9, \"ratio\": null, \"hidden\": false}\n    ],\n    \
             \"curve\": [1, 0.250000]\n  },\n  \
             \"all_passed\": true\n}\n"
        );
        let text = report.render();
        assert!(text.starts_with("== demo ==\nKernel"), "{text}");
        assert!(text.contains("Ratio") && !text.contains("hidden"), "{text}");
        assert!(text.contains("0.500") && text.contains("size 8"), "{text}");
        assert!(text.contains("== inner ==") && text.contains("curve [1, 0.250000]"));
        report.fails.push("boom".into());
        assert!(report.to_json().ends_with("\"all_passed\": false\n}\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(575.93), "575.9x");
        assert_eq!(fmt_util(166, 220), "166 (75%)");
    }
}
