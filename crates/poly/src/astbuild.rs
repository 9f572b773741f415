//! Polyhedral AST generation — the reproduction's `isl ast_build`
//! (Section V-B, construction step ④⑤ in Fig. 9).
//!
//! Given a collection of statements with (possibly transformed) iteration
//! domains and `2d+1` schedules, the builder emits an AST with the four
//! node types the paper names: *for*, *if*, *block*, and *user* nodes.
//! Loop bounds are derived by Fourier–Motzkin projection of each
//! statement's domain, which handles the non-rectangular domains produced
//! by skewing — once per statement, in one table all its loops read;
//! statements whose constraints differ under a shared loop get guard
//! (*if*) nodes.

use crate::constraint::Constraint;
use crate::expr::LinearExpr;
use crate::transform::StmtPoly;
use crate::{ceil_div, floor_div};
use std::collections::HashMap;
use std::fmt;

/// A loop-bound candidate: lower bounds mean `iv >= ceil(expr / div)`,
/// upper bounds mean `iv <= floor(expr / div)`. A bound list denotes the
/// max (for lowers) or min (for uppers) over its candidates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// Affine expression over outer loop ivs.
    pub expr: LinearExpr,
    /// Positive divisor.
    pub div: i64,
}

impl Bound {
    /// Creates a bound.
    pub fn new(expr: LinearExpr, div: i64) -> Self {
        assert!(div > 0, "bound divisor must be positive");
        Bound { expr, div }
    }

    /// Evaluates as a lower bound (ceiling division).
    pub fn eval_lower(&self, env: &HashMap<String, i64>) -> i64 {
        ceil_div(self.expr.eval_partial(env), self.div)
    }

    /// Evaluates as an upper bound (floor division).
    pub fn eval_upper(&self, env: &HashMap<String, i64>) -> i64 {
        floor_div(self.expr.eval_partial(env), self.div)
    }
}

/// Marker for how a [`Bound`] is rounded; retained for emitters that need
/// to print `ceil`/`floor` explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// Lower bound (`ceil`).
    Lower,
    /// Upper bound (`floor`).
    Upper,
}

/// A node of the polyhedral AST.
#[derive(Clone, Debug, PartialEq)]
pub enum AstNode {
    /// A `for` loop over `iv` from `max(lbs)` to `min(ubs)` inclusive.
    For {
        /// Induction variable name.
        iv: String,
        /// Lower-bound candidates (take the max).
        lbs: Vec<Bound>,
        /// Upper-bound candidates (take the min).
        ubs: Vec<Bound>,
        /// Loop body.
        body: Vec<AstNode>,
    },
    /// A guard: the body executes only when all constraints hold.
    If {
        /// Conjunction of affine conditions over the loop ivs.
        conds: Vec<Constraint>,
        /// Guarded body.
        body: Vec<AstNode>,
    },
    /// An explicit sequence (the paper's *block* node).
    Block(Vec<AstNode>),
    /// A statement instance (the paper's *user* node): the statement name
    /// plus the value of each *original* iterator as an affine expression
    /// over the surrounding loop ivs.
    User {
        /// Statement name.
        stmt: String,
        /// Original-iterator expressions.
        args: Vec<LinearExpr>,
    },
}

impl AstNode {
    /// Depth-first traversal of statement (user) nodes.
    pub fn walk_users<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a [LinearExpr])) {
        match self {
            AstNode::For { body, .. } | AstNode::If { body, .. } | AstNode::Block(body) => {
                for n in body {
                    n.walk_users(f);
                }
            }
            AstNode::User { stmt, args } => f(stmt, args),
        }
    }

    /// Counts nested loop levels below (and including) this node.
    pub fn loop_depth(&self) -> usize {
        match self {
            AstNode::For { body, .. } => {
                1 + body.iter().map(AstNode::loop_depth).max().unwrap_or(0)
            }
            AstNode::If { body, .. } | AstNode::Block(body) => {
                body.iter().map(AstNode::loop_depth).max().unwrap_or(0)
            }
            AstNode::User { .. } => 0,
        }
    }
}

/// Builds a polyhedral AST from scheduled statements it owns; see
/// [`build_ast`] for statements held elsewhere.
#[derive(Clone, Debug, Default)]
pub struct AstBuilder {
    stmts: Vec<StmtPoly>,
}

impl AstBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a statement.
    pub fn add_stmt(&mut self, stmt: StmtPoly) -> &mut Self {
        self.stmts.push(stmt);
        self
    }

    /// Builds the AST for all statements, honouring the lexicographic
    /// `2d+1` schedule order.
    pub fn build(&self) -> Vec<AstNode> {
        build_ast(&self.stmts)
    }
}

/// Builds the AST of `stmts`, honouring the lexicographic `2d+1`
/// schedule order. Each statement's loop bounds are projected once, one
/// [`BasicSet::level_bounds`](crate::BasicSet::level_bounds) table per
/// statement, and every loop the statement takes part in reads it.
pub fn build_ast(stmts: &[StmtPoly]) -> Vec<AstNode> {
    let items: Vec<Item> = stmts.iter().map(Item::of).collect();
    let refs: Vec<&Item> = items.iter().collect();
    build_level(&refs, 0)
}

/// A statement with the bounds of each of its loops, outermost first.
struct Item<'a> {
    stmt: &'a StmtPoly,
    bounds: Vec<LoopBounds>,
}

/// A loop's lower and upper bound candidates.
type LoopBounds = (Vec<Bound>, Vec<Bound>);

impl<'a> Item<'a> {
    fn of(stmt: &'a StmtPoly) -> Self {
        debug_assert_eq!(
            stmt.dims(),
            stmt.domain().dims(),
            "loops are the domain's dims"
        );
        let to_bounds = |terms: Vec<(LinearExpr, i64)>| -> Vec<Bound> {
            terms.into_iter().map(|(e, d)| Bound::new(e, d)).collect()
        };
        let bounds = stmt
            .domain()
            .level_bounds()
            .into_iter()
            .map(|(lbs, ubs)| (to_bounds(lbs), to_bounds(ubs)))
            .collect();
        Item { stmt, bounds }
    }
}

fn build_level(items: &[&Item], depth: usize) -> Vec<AstNode> {
    if items.is_empty() {
        return Vec::new();
    }
    // Group by the static sequence constant at this depth, ascending,
    // stable within a group.
    let mut groups: Vec<(i64, Vec<&Item>)> = Vec::new();
    let mut keys: Vec<i64> = items.iter().map(|s| s.stmt.statics()[depth]).collect();
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let group: Vec<&Item> = items
            .iter()
            .copied()
            .filter(|s| s.stmt.statics()[depth] == k)
            .collect();
        groups.push((k, group));
    }

    let mut out = Vec::new();
    for (_, group) in groups {
        // Partition the group into runs sharing a loop iv at this depth;
        // statements that are leaves at this depth become user nodes.
        let mut idx = 0;
        while idx < group.len() {
            let s = group[idx].stmt;
            if s.dims().len() == depth {
                out.push(user_node(s));
                idx += 1;
                continue;
            }
            let iv = &s.dims()[depth];
            let mut run = vec![group[idx]];
            let mut j = idx + 1;
            while j < group.len()
                && group[j].stmt.dims().len() > depth
                && &group[j].stmt.dims()[depth] == iv
            {
                run.push(group[j]);
                j += 1;
            }
            out.push(loop_node(&run, depth));
            idx = j;
        }
    }
    out
}

fn user_node(s: &StmtPoly) -> AstNode {
    AstNode::User {
        stmt: s.name().to_string(),
        args: s
            .orig_dims()
            .iter()
            .map(|d| s.orig_expr(d).expect("original dim").clone())
            .collect(),
    }
}

fn bounds_equal(a: &LoopBounds, b: &LoopBounds) -> bool {
    let norm = |v: &[Bound]| {
        let mut v: Vec<(LinearExpr, i64)> = v.iter().map(|b| (b.expr.clone(), b.div)).collect();
        v.sort();
        v.dedup();
        v
    };
    norm(&a.0) == norm(&b.0) && norm(&a.1) == norm(&b.1)
}

fn constant_range(bounds: &LoopBounds) -> Option<(i64, i64)> {
    let env = HashMap::new();
    if bounds.0.iter().any(|b| !b.expr.is_constant())
        || bounds.1.iter().any(|b| !b.expr.is_constant())
    {
        return None;
    }
    let lb = bounds.0.iter().map(|b| b.eval_lower(&env)).max()?;
    let ub = bounds.1.iter().map(|b| b.eval_upper(&env)).min()?;
    Some((lb, ub))
}

fn loop_node(run: &[&Item], depth: usize) -> AstNode {
    let iv = run[0].stmt.dims()[depth].clone();
    let first_bounds = &run[0].bounds[depth];
    let all_equal = run[1..]
        .iter()
        .all(|s| bounds_equal(&s.bounds[depth], first_bounds));

    if all_equal {
        let body = build_level(run, depth + 1);
        return AstNode::For {
            iv,
            lbs: first_bounds.0.clone(),
            ubs: first_bounds.1.clone(),
            body,
        };
    }

    // Differing bounds: supported when all bounds are constants — the loop
    // spans the union and each statement gets a guard where needed.
    let ranges: Vec<(i64, i64)> = run
        .iter()
        .map(|s| {
            constant_range(&s.bounds[depth]).unwrap_or_else(|| {
                panic!("cannot fuse statements with differing non-constant bounds at loop {iv}")
            })
        })
        .collect();
    let lb = ranges.iter().map(|r| r.0).min().expect("non-empty run");
    let ub = ranges.iter().map(|r| r.1).max().expect("non-empty run");

    let mut body = Vec::new();
    for (s, &(slb, sub)) in run.iter().zip(&ranges) {
        let inner = build_level(&[*s], depth + 1);
        if slb == lb && sub == ub {
            body.extend(inner);
        } else {
            let mut conds = Vec::new();
            if slb > lb {
                conds.push(Constraint::ge(
                    LinearExpr::var(&iv),
                    LinearExpr::constant_expr(slb),
                ));
            }
            if sub < ub {
                conds.push(Constraint::le(
                    LinearExpr::var(&iv),
                    LinearExpr::constant_expr(sub),
                ));
            }
            body.push(AstNode::If { conds, body: inner });
        }
    }
    AstNode::For {
        iv,
        lbs: vec![Bound::new(LinearExpr::constant_expr(lb), 1)],
        ubs: vec![Bound::new(LinearExpr::constant_expr(ub), 1)],
        body,
    }
}

/// Executes an AST, invoking `visit(stmt_name, original_iters)` for every
/// statement instance in schedule order. The reference interpreter used by
/// correctness tests and the semantic-equivalence harness.
pub fn execute(nodes: &[AstNode], visit: &mut impl FnMut(&str, &[i64])) {
    let mut env = HashMap::new();
    execute_with_env(nodes, &mut env, visit);
}

fn execute_with_env(
    nodes: &[AstNode],
    env: &mut HashMap<String, i64>,
    visit: &mut impl FnMut(&str, &[i64]),
) {
    for node in nodes {
        match node {
            AstNode::For { iv, lbs, ubs, body } => {
                let lb = lbs
                    .iter()
                    .map(|b| b.eval_lower(env))
                    .max()
                    .expect("loop without lower bound");
                let ub = ubs
                    .iter()
                    .map(|b| b.eval_upper(env))
                    .min()
                    .expect("loop without upper bound");
                for v in lb..=ub {
                    env.insert(iv.clone(), v);
                    execute_with_env(body, env, visit);
                }
                env.remove(iv);
            }
            AstNode::If { conds, body } => {
                if conds.iter().all(|c| c.satisfied(env)) {
                    execute_with_env(body, env, visit);
                }
            }
            AstNode::Block(body) => execute_with_env(body, env, visit),
            AstNode::User { stmt, args } => {
                let vals: Vec<i64> = args.iter().map(|e| e.eval_partial(env)).collect();
                visit(stmt, &vals);
            }
        }
    }
}

impl fmt::Display for AstNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, n: usize) -> fmt::Result {
            for _ in 0..n {
                write!(f, "  ")?;
            }
            Ok(())
        }
        fn bound_str(bs: &[Bound], lower: bool) -> String {
            let parts: Vec<String> = bs
                .iter()
                .map(|b| {
                    if b.div == 1 {
                        format!("{}", b.expr)
                    } else if lower {
                        format!("ceil(({}) / {})", b.expr, b.div)
                    } else {
                        format!("floor(({}) / {})", b.expr, b.div)
                    }
                })
                .collect();
            if parts.len() == 1 {
                parts.into_iter().next().expect("len checked")
            } else if lower {
                format!("max({})", parts.join(", "))
            } else {
                format!("min({})", parts.join(", "))
            }
        }
        fn go(node: &AstNode, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            match node {
                AstNode::For { iv, lbs, ubs, body } => {
                    indent(f, depth)?;
                    writeln!(
                        f,
                        "for {iv} = {} .. {} {{",
                        bound_str(lbs, true),
                        bound_str(ubs, false)
                    )?;
                    for n in body {
                        go(n, f, depth + 1)?;
                    }
                    indent(f, depth)?;
                    writeln!(f, "}}")
                }
                AstNode::If { conds, body } => {
                    indent(f, depth)?;
                    let cs: Vec<String> = conds.iter().map(|c| c.to_string()).collect();
                    writeln!(f, "if ({}) {{", cs.join(" && "))?;
                    for n in body {
                        go(n, f, depth + 1)?;
                    }
                    indent(f, depth)?;
                    writeln!(f, "}}")
                }
                AstNode::Block(body) => {
                    for n in body {
                        go(n, f, depth)?;
                    }
                    Ok(())
                }
                AstNode::User { stmt, args } => {
                    indent(f, depth)?;
                    let a: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                    writeln!(f, "{stmt}({})", a.join(", "))
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn collect_instances(nodes: &[AstNode]) -> Vec<(String, Vec<i64>)> {
        let mut out = Vec::new();
        execute(nodes, &mut |s, v| out.push((s.to_string(), v.to_vec())));
        out
    }

    #[test]
    fn simple_rectangular_nest() {
        let s = StmtPoly::new("S", &[("i", 0, 2), ("j", 0, 1)]);
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let ast = b.build();
        assert_eq!(ast.len(), 1);
        let inst = collect_instances(&ast);
        assert_eq!(inst.len(), 6);
        assert_eq!(inst[0], ("S".to_string(), vec![0, 0]));
        assert_eq!(inst[5], ("S".to_string(), vec![2, 1]));
    }

    #[test]
    fn split_executes_original_instances_in_order() {
        let mut s = StmtPoly::new("S", &[("i", 0, 30)]);
        s.split("i", 8, "i0", "i1");
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let inst = collect_instances(&b.build());
        let values: Vec<i64> = inst.iter().map(|(_, v)| v[0]).collect();
        assert_eq!(values, (0..=30).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_nest_executes_all_instances_once() {
        let mut s = StmtPoly::new("S", &[("t", 0, 3), ("i", 0, 3)]);
        s.skew("t", "i", 1, "t2", "i2");
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let ast = b.build();
        let inst = collect_instances(&ast);
        let set: BTreeSet<Vec<i64>> = inst.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(inst.len(), 16, "each instance exactly once");
        assert_eq!(set.len(), 16);
        for t in 0..=3 {
            for i in 0..=3 {
                assert!(set.contains(&vec![t, i]));
            }
        }
    }

    #[test]
    fn tiled_2d_executes_all_instances_once() {
        let mut s = StmtPoly::new("S", &[("i", 0, 6), ("j", 0, 9)]);
        s.tile("i", "j", 4, 3, "i0", "j0", "i1", "j1");
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let inst = collect_instances(&b.build());
        assert_eq!(inst.len(), 70);
        let set: BTreeSet<Vec<i64>> = inst.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(set.len(), 70);
    }

    #[test]
    fn sequence_of_two_nests() {
        let s1 = StmtPoly::new("S1", &[("i", 0, 2)]);
        let mut s2 = StmtPoly::new("S2", &[("m", 0, 1)]);
        s2.after_all(&s1);
        let mut b = AstBuilder::new();
        b.add_stmt(s1);
        b.add_stmt(s2);
        let ast = b.build();
        assert_eq!(ast.len(), 2, "two separate loop nests");
        let inst = collect_instances(&ast);
        let names: Vec<&str> = inst.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["S1", "S1", "S1", "S2", "S2"]);
    }

    #[test]
    fn fused_statements_share_loop() {
        let s1 = StmtPoly::new("S1", &[("t", 0, 2), ("i", 0, 1)]);
        let mut s2 = StmtPoly::new("S2", &[("u", 0, 2), ("m", 0, 1)]);
        s2.after(&s1, "t"); // share the t loop, sequence inside
        let mut b = AstBuilder::new();
        b.add_stmt(s1);
        b.add_stmt(s2);
        let ast = b.build();
        assert_eq!(ast.len(), 1, "single fused outer loop");
        let inst = collect_instances(&ast);
        // Per t: S1 over i, then S2 over m.
        let expected_names = [
            "S1", "S1", "S2", "S2", "S1", "S1", "S2", "S2", "S1", "S1", "S2", "S2",
        ];
        let names: Vec<&str> = inst.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected_names);
    }

    #[test]
    fn fused_constant_bounds_mismatch_gets_guard() {
        let s1 = StmtPoly::new("S1", &[("i", 0, 4)]);
        let mut s2 = StmtPoly::new("S2", &[("m", 1, 3)]);
        // Fuse at loop i: rename m to i, share statics, then same static so
        // they interleave inside the merged loop.
        s2.rename_dim("m", "i");
        // Same statics => same group at depth 0.
        let mut b = AstBuilder::new();
        b.add_stmt(s1);
        b.add_stmt(s2);
        let ast = b.build();
        assert_eq!(ast.len(), 1);
        let inst = collect_instances(&ast);
        let s1_count = inst.iter().filter(|(n, _)| n == "S1").count();
        let s2_count = inst.iter().filter(|(n, _)| n == "S2").count();
        assert_eq!(s1_count, 5);
        assert_eq!(s2_count, 3);
        // Interleaving at i=2: S1(2) then S2(2).
        let pos_s1 = inst
            .iter()
            .position(|(n, v)| n == "S1" && v == &vec![2])
            .unwrap();
        let pos_s2 = inst
            .iter()
            .position(|(n, v)| n == "S2" && v == &vec![2])
            .unwrap();
        assert!(pos_s1 < pos_s2);
    }

    #[test]
    fn display_renders_loops() {
        let mut s = StmtPoly::new("S", &[("i", 0, 7)]);
        s.split("i", 4, "i0", "i1");
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let ast = b.build();
        let text = ast[0].to_string();
        assert!(text.contains("for i0"), "got: {text}");
        assert!(text.contains("for i1"), "got: {text}");
        assert!(text.contains("S("), "got: {text}");
    }

    #[test]
    fn loop_depth_counts() {
        let s = StmtPoly::new("S", &[("i", 0, 2), ("j", 0, 2), ("k", 0, 2)]);
        let mut b = AstBuilder::new();
        b.add_stmt(s);
        let ast = b.build();
        assert_eq!(ast[0].loop_depth(), 3);
    }
}
