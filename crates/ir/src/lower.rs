//! Lowering from the polyhedral AST (layer 2) to the affine dialect
//! (layer 3) — the mapping of Fig. 9(d): for-nodes become `affine.for`,
//! if-nodes become `affine.if`, and user-nodes are expanded into
//! `affine.store` ops by retrieving the statement information attached to
//! the AST (the paper's ⑥⑦).

use crate::attrs::MemRefDecl;
use crate::ops::{AffineFunc, AffineOp, ForOp, IfOp, StoreOp};
use pom_dsl::Expr;
use pom_poly::{AccessFn, AstNode, LinearExpr, PolyError};
use std::collections::HashMap;

/// The computation statement attached to user nodes: the compute body and
/// store destination over the *original* iterator names.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtBody {
    /// Statement name (matches the AST user nodes).
    pub name: String,
    /// Original iterator names, in the order of the user-node arguments.
    pub orig_dims: Vec<String>,
    /// The compute body over the original iterators.
    pub body: Expr,
    /// Store destination over the original iterators.
    pub store: AccessFn,
}

impl StmtBody {
    /// Instantiates the statement at concrete user-node arguments: every
    /// original iterator is replaced by its expression over the loop ivs.
    /// Substitution is capture-avoiding (original names may collide with
    /// loop iv names).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a substituted coefficient
    /// leaves `i64`.
    pub fn instantiate(&self, args: &[LinearExpr]) -> Result<(Expr, AccessFn), PolyError> {
        assert_eq!(
            args.len(),
            self.orig_dims.len(),
            "statement {} expects {} args, got {}",
            self.name,
            self.orig_dims.len(),
            args.len()
        );
        let placeholders: Vec<String> = self
            .orig_dims
            .iter()
            .map(|d| format!("__stmt_{d}"))
            .collect();
        let mut body = self.body.clone();
        let mut store_idx: Vec<LinearExpr> = self.store.indices.clone();
        for (d, p) in self.orig_dims.iter().zip(&placeholders) {
            let pv = LinearExpr::var(p);
            body = body.substituted(d, &pv)?;
            for e in &mut store_idx {
                *e = e.substituted(d, &pv)?;
            }
        }
        for (p, a) in placeholders.iter().zip(args) {
            body = body.substituted(p, a)?;
            for e in &mut store_idx {
                *e = e.substituted(p, a)?;
            }
        }
        Ok((body, AccessFn::new(self.store.array.clone(), store_idx)))
    }
}

/// Lowers a polyhedral AST into an [`AffineFunc`].
///
/// # Errors
///
/// As [`StmtBody::instantiate`].
///
/// # Panics
///
/// Panics if a user node references a statement missing from `bodies`.
pub fn lower_to_affine(
    name: &str,
    memrefs: Vec<MemRefDecl>,
    ast: &[AstNode],
    bodies: &HashMap<String, StmtBody>,
) -> Result<AffineFunc, PolyError> {
    let mut func = AffineFunc::new(name);
    func.memrefs = memrefs;
    func.body = lower_nodes(ast, bodies)?;
    Ok(func)
}

fn lower_nodes(
    nodes: &[AstNode],
    bodies: &HashMap<String, StmtBody>,
) -> Result<Vec<AffineOp>, PolyError> {
    let mut out = Vec::new();
    for n in nodes {
        match n {
            AstNode::For { iv, lbs, ubs, body } => out.push(AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: iv.clone(),
                lbs: lbs.clone(),
                ubs: ubs.clone(),
                attrs: Default::default(),
                body: lower_nodes(body, bodies)?,
            })),
            AstNode::If { conds, body } => out.push(AffineOp::If(IfOp {
                conds: conds.clone(),
                body: lower_nodes(body, bodies)?,
            })),
            AstNode::Block(body) => out.extend(lower_nodes(body, bodies)?),
            AstNode::User { stmt, args } => {
                let sb = bodies
                    .get(stmt)
                    .unwrap_or_else(|| panic!("no statement body registered for {stmt}"));
                let (value, dest) = sb.instantiate(args)?;
                out.push(AffineOp::Store(StoreOp {
                    stmt: stmt.clone(),
                    dest,
                    value,
                }));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;
    use pom_poly::{AstBuilder, StmtPoly};

    fn gemm_body() -> StmtBody {
        // A[i][j] += B[i][k] * C[k][j]
        let load = |a: &str, x: LinearExpr, y: LinearExpr| Expr::Load(AccessFn::new(a, vec![x, y]));
        let i = LinearExpr::var("i");
        let j = LinearExpr::var("j");
        let k = LinearExpr::var("k");
        StmtBody {
            name: "s".into(),
            orig_dims: vec!["i".into(), "j".into(), "k".into()],
            body: load("A", i.clone(), j.clone())
                + load("B", i.clone(), k.clone()) * load("C", k.clone(), j.clone()),
            store: AccessFn::new("A", vec![i, j]),
        }
    }

    #[test]
    fn lower_identity_schedule() {
        let sp = StmtPoly::new("s", &[("i", 0, 7), ("j", 0, 7), ("k", 0, 7)]);
        let mut b = AstBuilder::new();
        b.add_stmt(sp);
        let ast = b.build().unwrap();
        let mut bodies = HashMap::new();
        bodies.insert("s".to_string(), gemm_body());
        let memrefs = vec![
            MemRefDecl::new("A", &[8, 8], DataType::F32),
            MemRefDecl::new("B", &[8, 8], DataType::F32),
            MemRefDecl::new("C", &[8, 8], DataType::F32),
        ];
        let f = lower_to_affine("gemm", memrefs, &ast, &bodies).unwrap();
        assert_eq!(f.body.len(), 1);
        assert_eq!(f.body[0].loop_depth(), 3);
        assert_eq!(f.stores().len(), 1);
        let s = &f.stores()[0];
        assert_eq!(s.dest.array, "A");
        assert_eq!(s.dest.indices[0], LinearExpr::var("i"));
    }

    #[test]
    fn lower_tiled_schedule_rewrites_indices() {
        let mut sp = StmtPoly::new("s", &[("i", 0, 7), ("j", 0, 7), ("k", 0, 7)]);
        sp.split("j", 4, "j0", "j1").unwrap();
        let mut b = AstBuilder::new();
        b.add_stmt(sp);
        let ast = b.build().unwrap();
        let mut bodies = HashMap::new();
        bodies.insert("s".to_string(), gemm_body());
        let f = lower_to_affine("gemm", vec![], &ast, &bodies).unwrap();
        let s = &f.stores()[0];
        // A[i][4*j0 + j1]
        assert_eq!(s.dest.indices[1].coeff("j0"), 4);
        assert_eq!(s.dest.indices[1].coeff("j1"), 1);
        // Loads rewritten too.
        let loads = s.value.loads();
        let c_load = loads.iter().find(|l| l.array == "C").unwrap();
        assert_eq!(c_load.indices[1].coeff("j0"), 4);
    }

    #[test]
    fn instantiate_handles_name_collision() {
        // Statement over original dim "i", lowered into a loop also named
        // "i" but with arg i+1 (shifted schedule).
        let sb = StmtBody {
            name: "s".into(),
            orig_dims: vec!["i".into()],
            body: Expr::Load(AccessFn::new("A", vec![LinearExpr::var("i")])),
            store: AccessFn::new("B", vec![LinearExpr::var("i")]),
        };
        let (body, dest) = sb.instantiate(&[LinearExpr::var("i") + 1]).unwrap();
        assert_eq!(dest.indices[0], LinearExpr::var("i") + 1);
        assert_eq!(body.loads()[0].indices[0], LinearExpr::var("i") + 1);
    }

    #[test]
    #[should_panic(expected = "no statement body registered")]
    fn missing_body_panics() {
        let sp = StmtPoly::new("ghost", &[("i", 0, 3)]);
        let mut b = AstBuilder::new();
        b.add_stmt(sp);
        lower_to_affine("f", vec![], &b.build().unwrap(), &HashMap::new()).unwrap();
    }
}
