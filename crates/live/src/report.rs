//! Text rendering of a [`LiveReport`](crate::LiveReport).

use crate::LiveReport;
use std::fmt::Write as _;

fn dims(v: &[i64]) -> String {
    v.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Human-readable rendering (the `pomc --emit live` output).
pub fn render(r: &LiveReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "live report for @{}", r.func);
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>12} {:>14} {:>7} {:>10}",
        "array", "declared", "windows", "high-water", "exact", "contract"
    );
    for a in &r.arrays {
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>12} {:>14} {:>7} {:>10}",
            a.array,
            dims(&a.extents),
            dims(&a.windows),
            a.high_water_cells,
            if a.exact { "yes" } else { "no" },
            if a.contracted() {
                format!("{}b", a.contracted_bits())
            } else {
                "-".to_string()
            }
        );
    }
    if !r.depths.is_empty() {
        let _ = writeln!(out, "  flow depths:");
        for d in &r.depths {
            let _ = writeln!(
                out,
                "    {} -> {} via {}: depth {} ({})",
                d.producer,
                d.consumer,
                d.array,
                d.depth,
                dims(&d.windows)
            );
        }
    }
    for ds in &r.dead_stores {
        let _ = writeln!(
            out,
            "  DEAD STORE: stmt {} writes {} but is fully overwritten by {}",
            ds.stmt, ds.array, ds.killer
        );
    }
    out
}
