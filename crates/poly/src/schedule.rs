//! Explicit schedule maps — the paper's union-map step.
//!
//! Section V-B, construction step ③④: "a union map is created by
//! collecting all the domains and schedules of different loops in one
//! integer map. Then an ast_build method … builds the polyhedral AST from
//! the union map." [`StmtPoly`] carries its schedule implicitly (dims +
//! `2d+1` statics); this module materializes it as an explicit [`Map`]
//! into the shared schedule space, assembles the [`UnionMap`], and checks
//! the lexicographic consistency that `ast_build` relies on.

use crate::expr::LinearExpr;
use crate::map::Map;
use crate::transform::StmtPoly;
use std::collections::HashMap;
use std::fmt;

/// The `2d+1` schedule of one statement as an explicit affine map
/// `{ S(current dims) -> (c0, d0, c1, d1, …, cn) }`.
pub fn schedule_map(s: &StmtPoly) -> Map {
    let in_dims: Vec<&str> = s.dims().iter().map(String::as_str).collect();
    let n = s.dims().len();
    let out_names: Vec<String> = (0..=2 * n)
        .map(|k| {
            if k % 2 == 0 {
                format!("c{}", k / 2)
            } else {
                format!("t{}", k / 2)
            }
        })
        .collect();
    let out_refs: Vec<&str> = out_names.iter().map(String::as_str).collect();
    let mut exprs = Vec::with_capacity(2 * n + 1);
    for k in 0..n {
        exprs.push(LinearExpr::constant_expr(s.statics()[k]));
        exprs.push(LinearExpr::var(&s.dims()[k]));
    }
    exprs.push(LinearExpr::constant_expr(s.statics()[n]));
    Map::from_exprs(&in_dims, &out_refs, exprs)
}

/// Evaluates a statement's schedule at a concrete iteration point,
/// returning the full `2d+1` lexicographic timestamp (shorter statements
/// are padded with `i64::MIN` so nests of different depths compare).
pub fn timestamp(s: &StmtPoly, point: &[i64], width: usize) -> Vec<i64> {
    assert_eq!(point.len(), s.dims().len(), "point arity mismatch");
    let mut out = Vec::with_capacity(width);
    for (k, &p) in point.iter().enumerate() {
        out.push(s.statics()[k]);
        out.push(p);
    }
    out.push(s.statics()[s.dims().len()]);
    while out.len() < width {
        out.push(i64::MIN);
    }
    out
}

/// A named collection of per-statement schedule maps — the paper's union
/// map (one integer map collecting all domains and schedules).
#[derive(Clone, Debug)]
pub struct UnionMap {
    entries: Vec<(String, Map)>,
}

impl UnionMap {
    /// Assembles the union map of a statement collection.
    pub fn from_stmts(stmts: &[StmtPoly]) -> UnionMap {
        UnionMap {
            entries: stmts
                .iter()
                .map(|s| (s.name().to_string(), schedule_map(s)))
                .collect(),
        }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The schedule map of a statement.
    pub fn map_of(&self, stmt: &str) -> Option<&Map> {
        self.entries.iter().find(|(n, _)| n == stmt).map(|(_, m)| m)
    }

    /// Checks that no two statements of the union share an identical
    /// timestamp for any iteration (sampled over the given domains): the
    /// injectivity `ast_build` needs to order statement instances.
    ///
    /// Intended for tests and small domains.
    pub fn check_injective(&self, stmts: &[StmtPoly], limit: usize) -> Result<(), String> {
        let width = stmts
            .iter()
            .map(|s| 2 * s.dims().len() + 1)
            .max()
            .unwrap_or(1);
        let mut seen: HashMap<Vec<i64>, String> = HashMap::new();
        for s in stmts {
            for p in s.domain().enumerate_flat(limit).iter() {
                let ts = timestamp(s, p, width);
                if let Some(prev) = seen.insert(ts.clone(), s.name().to_string()) {
                    if prev != s.name() {
                        return Err(format!(
                            "{} and {} share timestamp {:?}",
                            prev,
                            s.name(),
                            ts
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for UnionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (name, m) in &self.entries {
            writeln!(f, "  {name}: {m};")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_map_encodes_statics_and_dims() {
        let mut s = StmtPoly::new("S", &[("i", 0, 3), ("j", 0, 3)]);
        s.set_order(2);
        let m = schedule_map(&s);
        // (i, j) -> (2, i, 0, j, 0)
        assert_eq!(m.eval(&[1, 2]), Some(vec![2, 1, 0, 2, 0]));
    }

    #[test]
    fn timestamps_order_like_execution() {
        // Two fused statements: S2 after S1 at the innermost level.
        let s1 = StmtPoly::new("S1", &[("t", 0, 1), ("i", 0, 1)]);
        let mut s2 = StmtPoly::new("S2", &[("u", 0, 1), ("m", 0, 1)]);
        s2.after(&s1, "i");
        let w = 5;
        // Same (t, i): S1 strictly before S2.
        let a = timestamp(&s1, &[0, 1], w);
        let b = timestamp(&s2, &[0, 1], w);
        assert!(a < b, "{a:?} vs {b:?}");
        // Later t of S1 comes after earlier t of S2.
        let c = timestamp(&s1, &[1, 0], w);
        assert!(b < c, "{b:?} vs {c:?}");
    }

    #[test]
    fn union_map_is_injective_for_fused_pairs() {
        let s1 = StmtPoly::new("S1", &[("t", 0, 3), ("i", 0, 3)]);
        let mut s2 = StmtPoly::new("S2", &[("u", 0, 3), ("m", 0, 3)]);
        s2.after(&s1, "i");
        let stmts = vec![s1, s2];
        let um = UnionMap::from_stmts(&stmts);
        assert_eq!(um.len(), 2);
        um.check_injective(&stmts, 10_000)
            .expect("distinct timestamps");
        assert!(um.map_of("S1").is_some());
        assert!(um.map_of("nope").is_none());
    }

    #[test]
    fn identical_schedules_are_caught() {
        // Two statements with the same statics and overlapping domains
        // collide — the misuse check_injective exists to catch.
        let s1 = StmtPoly::new("S1", &[("i", 0, 2)]);
        let s2 = StmtPoly::new("S2", &[("i", 0, 2)]);
        let stmts = vec![s1, s2];
        let um = UnionMap::from_stmts(&stmts);
        assert!(um.check_injective(&stmts, 1000).is_err());
    }

    #[test]
    fn display_lists_statements() {
        let stmts = vec![StmtPoly::new("S", &[("i", 0, 1)])];
        let um = UnionMap::from_stmts(&stmts);
        let text = um.to_string();
        assert!(text.contains("S: {"), "{text}");
    }
}
