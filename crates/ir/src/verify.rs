//! Structural verification of affine-dialect functions.

use crate::ops::{AffineFunc, AffineOp};
use std::collections::HashSet;
use std::fmt;

/// Raw `hls.`-namespace attribute keys the verifier understands. They
/// duplicate the typed [`crate::attrs::HlsAttrs`] fields, so even a
/// *known* key is rejected in raw form — the raw channel exists for
/// other namespaces (`vendor.*`, `debug.*`, ...).
const TYPED_HLS_KEYS: &[&str] = &[
    "hls.pipeline_ii",
    "hls.unroll_factor",
    "hls.dependence_free",
];

/// A verification failure with the op path it was found at.
///
/// `path` is the chain of enclosing induction variables; `stmt` is the
/// originating statement name when the failure is inside a store. Both
/// feed the rustc-style location line in the [`fmt::Display`] rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// What went wrong.
    pub message: String,
    /// Enclosing loop path (outermost first), empty at function level.
    pub path: Vec<String>,
    /// Originating statement, when the failure is inside a store.
    pub stmt: Option<String>,
}

impl VerifyError {
    /// A failure at function level (no op path).
    pub fn new(message: impl Into<String>) -> Self {
        VerifyError {
            message: message.into(),
            path: Vec::new(),
            stmt: None,
        }
    }

    /// A failure at a loop path.
    pub fn at(message: impl Into<String>, path: &[String]) -> Self {
        VerifyError {
            message: message.into(),
            path: path.to_vec(),
            stmt: None,
        }
    }

    /// A failure inside statement `stmt` at a loop path.
    pub fn at_stmt(message: impl Into<String>, path: &[String], stmt: &str) -> Self {
        VerifyError {
            message: message.into(),
            path: path.to_vec(),
            stmt: Some(stmt.to_string()),
        }
    }

    /// Human-readable location, e.g. `for i / for j / S` or `<function>`.
    pub fn location(&self) -> String {
        let mut parts: Vec<String> = self.path.iter().map(|iv| format!("for {iv}")).collect();
        if let Some(s) = &self.stmt {
            parts.push(s.clone());
        }
        if parts.is_empty() {
            "<function>".to_string()
        } else {
            parts.join(" / ")
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed: {}", self.message)?;
        if !self.path.is_empty() || self.stmt.is_some() {
            write!(f, "\n  --> {}", self.location())?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verifies an [`AffineFunc`]:
///
/// * induction variables are unique along every nesting path,
/// * bound and condition expressions only reference in-scope ivs,
/// * loads/stores target declared memrefs with matching rank — including
///   loads nested inside `affine.if` bodies,
/// * store index expressions only reference in-scope ivs,
/// * HLS attributes are sane (II >= 1, unroll factor >= 1),
/// * raw attributes in the `hls.` namespace are rejected — unknown keys
///   are likely misspelled pragmas, known keys must use the typed
///   [`crate::attrs::HlsAttrs`] fields,
/// * array partitions are sane (one factor per dimension, factors >= 1).
///
/// # Errors
///
/// Returns the first violation found, with the op path it occurred at.
pub fn verify(func: &AffineFunc) -> Result<(), VerifyError> {
    for m in &func.memrefs {
        if let Some(p) = &m.partition {
            if p.factors.len() != m.shape.len() {
                return Err(VerifyError::new(format!(
                    "memref {} has rank {}, partition has {} factors",
                    m.name,
                    m.shape.len(),
                    p.factors.len()
                )));
            }
            if let Some(f) = p.factors.iter().find(|&&f| f < 1) {
                return Err(VerifyError::new(format!(
                    "memref {} has non-positive partition factor {f}",
                    m.name
                )));
            }
        }
    }
    let memrefs: HashSet<&str> = func.memrefs.iter().map(|m| m.name.as_str()).collect();
    let mut scope: Vec<String> = Vec::new();
    verify_ops(func, &func.body, &mut scope, &memrefs)
}

/// The known `hls.*` key closest to `key` by edit distance, when close
/// enough to be a plausible typo (distance <= 1/3 of the key's length).
fn nearest_hls_key(key: &str) -> Option<&'static str> {
    TYPED_HLS_KEYS
        .iter()
        .map(|k| (edit_distance(key, k), *k))
        .min()
        .filter(|&(d, _)| d <= key.len().max(1) / 3)
        .map(|(_, k)| k)
}

/// Levenshtein distance over bytes (attribute keys are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Which affine expression [`check_expr_scope`] checks, named in the
/// message only when the check fails.
#[derive(Clone, Copy)]
enum ExprSite<'a> {
    /// A bound of the loop with this induction variable.
    LoopBound(&'a str),
    /// An index of an access to this memref.
    Index(&'a str),
    /// An `affine.if` condition.
    IfCondition,
}

impl fmt::Display for ExprSite<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprSite::LoopBound(iv) => write!(f, "bound of loop {iv}"),
            ExprSite::Index(array) => write!(f, "index of {array}"),
            ExprSite::IfCondition => f.write_str("if condition"),
        }
    }
}

fn check_expr_scope(
    e: &pom_poly::LinearExpr,
    scope: &[String],
    what: ExprSite<'_>,
) -> Result<(), VerifyError> {
    for v in e.vars() {
        if !scope.iter().any(|s| s == v) {
            return Err(VerifyError::at(
                format!("{what} references {v}, which is not an enclosing induction variable"),
                scope,
            ));
        }
    }
    Ok(())
}

fn verify_ops(
    func: &AffineFunc,
    ops: &[AffineOp],
    scope: &mut Vec<String>,
    memrefs: &HashSet<&str>,
) -> Result<(), VerifyError> {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                if scope.contains(&l.iv) {
                    return Err(VerifyError::at(
                        format!("induction variable {} shadows an enclosing loop", l.iv),
                        scope,
                    ));
                }
                if l.lbs.is_empty() || l.ubs.is_empty() {
                    return Err(VerifyError::at(
                        format!("loop {} lacks bounds", l.iv),
                        scope,
                    ));
                }
                for b in l.lbs.iter().chain(&l.ubs) {
                    if b.div < 1 {
                        return Err(VerifyError::at(
                            format!("loop {} has non-positive bound divisor {}", l.iv, b.div),
                            scope,
                        ));
                    }
                    check_expr_scope(&b.expr, scope, ExprSite::LoopBound(&l.iv))?;
                }
                if let Some(ii) = l.attrs.pipeline_ii {
                    if ii < 1 {
                        return Err(VerifyError::at(
                            format!("loop {} has pipeline II {ii} < 1", l.iv),
                            scope,
                        ));
                    }
                }
                if let Some(u) = l.attrs.unroll_factor {
                    if u < 1 {
                        return Err(VerifyError::at(
                            format!("loop {} has unroll factor {u} < 1", l.iv),
                            scope,
                        ));
                    }
                }
                for r in &l.extra {
                    if r.key.starts_with("hls.") {
                        let msg = if TYPED_HLS_KEYS.contains(&r.key.as_str()) {
                            format!(
                                "raw attribute {} on loop {} duplicates a typed HLS \
                                 attribute; set the HlsAttrs field instead",
                                r.key, l.iv
                            )
                        } else {
                            let mut msg = format!(
                                "unknown HLS pragma attribute {} on loop {} (known: {})",
                                r.key,
                                l.iv,
                                TYPED_HLS_KEYS.join(", ")
                            );
                            if let Some(near) = nearest_hls_key(&r.key) {
                                msg.push_str(&format!("; did you mean `{near}`?"));
                            }
                            msg
                        };
                        return Err(VerifyError::at(msg, scope));
                    }
                }
                scope.push(l.iv.clone());
                verify_ops(func, &l.body, scope, memrefs)?;
                scope.pop();
            }
            AffineOp::If(i) => {
                for c in &i.conds {
                    check_expr_scope(&c.expr, scope, ExprSite::IfCondition)?;
                }
                verify_ops(func, &i.body, scope, memrefs)?;
            }
            AffineOp::Store(s) => {
                let check_access = |a: &pom_poly::AccessFn| -> Result<(), VerifyError> {
                    if !memrefs.contains(a.array.as_str()) {
                        return Err(VerifyError::at_stmt(
                            format!("access to undeclared memref {}", a.array),
                            scope,
                            &s.stmt,
                        ));
                    }
                    let decl = func.memref(&a.array).expect("checked above");
                    if decl.shape.len() != a.indices.len() {
                        return Err(VerifyError::at_stmt(
                            format!(
                                "memref {} has rank {}, access has {} indices",
                                a.array,
                                decl.shape.len(),
                                a.indices.len()
                            ),
                            scope,
                            &s.stmt,
                        ));
                    }
                    for e in &a.indices {
                        check_expr_scope(e, scope, ExprSite::Index(&a.array)).map_err(
                            |mut err| {
                                err.stmt = Some(s.stmt.clone());
                                err
                            },
                        )?;
                    }
                    Ok(())
                };
                check_access(&s.dest)?;
                for_each_load(&s.value, &check_access)?;
            }
        }
    }
    Ok(())
}

/// Runs `check` on every load of `e`, left to right, stopping at the
/// first failure.
fn for_each_load(
    e: &pom_dsl::Expr,
    check: &impl Fn(&pom_poly::AccessFn) -> Result<(), VerifyError>,
) -> Result<(), VerifyError> {
    use pom_dsl::Expr;
    match e {
        Expr::Load(a) => check(a),
        Expr::Binary(_, l, r) => {
            for_each_load(l, check)?;
            for_each_load(r, check)
        }
        Expr::Unary(_, e) => for_each_load(e, check),
        Expr::Affine(_) | Expr::Const(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{HlsAttrs, MemRefDecl, RawAttr};
    use crate::ops::{ForOp, StoreOp};
    use pom_dsl::{DataType, Expr};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn valid_func() -> AffineFunc {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: AccessFn::new("A", vec![LinearExpr::var("i")]),
                value: Expr::Const(1.0),
            })],
        }));
        f
    }

    #[test]
    fn valid_function_verifies() {
        assert_eq!(verify(&valid_func()), Ok(()));
    }

    #[test]
    fn undeclared_memref_fails() {
        let mut f = valid_func();
        f.memrefs.clear();
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("undeclared memref A"));
        assert_eq!(err.path, vec!["i".to_string()]);
        assert_eq!(err.stmt.as_deref(), Some("S"));
    }

    #[test]
    fn out_of_scope_index_fails() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            if let AffineOp::Store(s) = &mut l.body[0] {
                s.dest = AccessFn::new("A", vec![LinearExpr::var("z")]);
            }
        }
        let err = verify(&f).unwrap_err();
        assert_eq!(
            err.message,
            "index of A references z, which is not an enclosing induction variable"
        );
        assert_eq!(err.stmt.as_deref(), Some("S"));

        // The same inside a load of the stored value.
        let mut f = valid_func();
        f.memrefs.push(MemRefDecl::new("B", &[8], DataType::F32));
        if let AffineOp::For(l) = &mut f.body[0] {
            if let AffineOp::Store(s) = &mut l.body[0] {
                s.value =
                    Expr::Const(1.0) + Expr::Load(AccessFn::new("B", vec![LinearExpr::var("y")]));
            }
        }
        let err = verify(&f).unwrap_err();
        assert_eq!(
            err.message,
            "index of B references y, which is not an enclosing induction variable"
        );
        assert_eq!(err.stmt.as_deref(), Some("S"));

        // And in a loop bound, which names the loop.
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.ubs = vec![Bound::new(LinearExpr::var("n"), 1)];
        }
        let err = verify(&f).unwrap_err();
        assert_eq!(
            err.message,
            "bound of loop i references n, which is not an enclosing induction variable"
        );
        assert_eq!(err.stmt, None);
    }

    #[test]
    fn rank_mismatch_fails() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            if let AffineOp::Store(s) = &mut l.body[0] {
                s.dest = AccessFn::new("A", vec![LinearExpr::var("i"), LinearExpr::var("i")]);
            }
        }
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("rank"));
    }

    #[test]
    fn shadowed_iv_fails() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            let inner = ForOp {
                extra: Vec::new(),
                iv: "i".into(),
                lbs: vec![cb(0)],
                ubs: vec![cb(3)],
                attrs: HlsAttrs::none(),
                body: vec![],
            };
            l.body.push(AffineOp::For(inner));
        }
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("shadows"));
        assert_eq!(err.path, vec!["i".to_string()]);
    }

    #[test]
    fn bad_attributes_fail() {
        let mut f = valid_func();
        f.set_pipeline("i", 0);
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("II 0"));

        let mut f = valid_func();
        f.set_unroll("i", -2);
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("unroll factor -2"));
    }

    #[test]
    fn unknown_hls_pragma_fails() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.extra.push(RawAttr::new("hls.pipelin_ii", "2"));
        }
        let err = verify(&f).unwrap_err();
        assert!(
            err.message
                .contains("unknown HLS pragma attribute hls.pipelin_ii"),
            "{}",
            err.message
        );
        assert!(err.message.contains("hls.pipeline_ii"), "{}", err.message);
    }

    #[test]
    fn unknown_hls_pragma_suggests_nearest_key() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.extra.push(RawAttr::new("hls.pipelin_ii", "2"));
        }
        let err = verify(&f).unwrap_err();
        assert!(
            err.message.contains("did you mean `hls.pipeline_ii`?"),
            "{}",
            err.message
        );

        // A key nothing like any known pragma gets no suggestion.
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.extra.push(RawAttr::new("hls.qzx", "1"));
        }
        let err = verify(&f).unwrap_err();
        assert!(!err.message.contains("did you mean"), "{}", err.message);
    }

    #[test]
    fn raw_duplicate_of_typed_hls_attr_fails() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.extra.push(RawAttr::new("hls.pipeline_ii", "2"));
        }
        let err = verify(&f).unwrap_err();
        assert!(
            err.message.contains("duplicates a typed HLS"),
            "{}",
            err.message
        );
    }

    #[test]
    fn non_hls_raw_attrs_are_allowed() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.extra.push(RawAttr::new("vendor.note", "\"checked\""));
        }
        assert_eq!(verify(&f), Ok(()));
        assert!(f.to_string().contains("vendor.note = \"checked\""));
    }

    #[test]
    fn display_renders_location_line() {
        let mut f = valid_func();
        f.memrefs.clear();
        let err = verify(&f).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.starts_with("verification failed: "), "{rendered}");
        assert!(rendered.contains("\n  --> for i / S"), "{rendered}");
        assert_eq!(err.location(), "for i / S");

        let fn_level = VerifyError::new("bad partition");
        assert_eq!(fn_level.location(), "<function>");
        assert!(!fn_level.to_string().contains("-->"));
    }

    #[test]
    fn rank_mismatched_load_inside_if_fails() {
        // for i { if (i >= 1) { A[i] = A[i][i] + 1 } } — the offending
        // access is a *load* nested inside an `affine.if` body.
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            let body = std::mem::take(&mut l.body);
            let mut guarded = body;
            if let AffineOp::Store(s) = &mut guarded[0] {
                s.value = Expr::Load(AccessFn::new(
                    "A",
                    vec![LinearExpr::var("i"), LinearExpr::var("i")],
                )) + 1.0;
            }
            l.body = vec![AffineOp::If(crate::ops::IfOp {
                conds: vec![pom_poly::Constraint::ge_zero(
                    LinearExpr::var("i") - LinearExpr::constant_expr(1),
                )],
                body: guarded,
            })];
        }
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("rank 1"), "{}", err.message);
        assert!(err.message.contains("2 indices"), "{}", err.message);
    }

    #[test]
    fn bad_partition_fails() {
        let mut f = valid_func();
        f.memrefs[0].partition = Some(crate::attrs::PartitionInfo {
            factors: vec![2, 2],
            style: pom_dsl::PartitionStyle::Cyclic,
        });
        let err = verify(&f).unwrap_err();
        assert!(
            err.message.contains("partition has 2 factors"),
            "{}",
            err.message
        );

        let mut f = valid_func();
        f.memrefs[0].partition = Some(crate::attrs::PartitionInfo {
            factors: vec![0],
            style: pom_dsl::PartitionStyle::Block,
        });
        let err = verify(&f).unwrap_err();
        assert!(
            err.message.contains("non-positive partition factor"),
            "{}",
            err.message
        );
    }

    #[test]
    fn missing_bounds_fail() {
        let mut f = valid_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.ubs.clear();
        }
        let err = verify(&f).unwrap_err();
        assert!(err.message.contains("lacks bounds"));
    }
}
