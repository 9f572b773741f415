//! An interpreter for affine-dialect functions.
//!
//! Executes the IR against a [`pom_dsl::MemoryState`]. Used by the test
//! suite to prove that the *fully transformed* program (after any chain of
//! polyhedral transformations and lowering) computes exactly what the
//! reference DSL semantics compute.

use crate::ops::{AffineFunc, AffineOp, ForOp, StoreOp};
use pom_dsl::{interp::eval_expr, MemoryState};
use std::collections::HashMap;
use std::convert::Infallible;

/// Executes a function, mutating `mem`.
///
/// # Panics
///
/// Panics on out-of-bounds accesses or references to missing arrays —
/// those are compiler bugs the tests are designed to surface.
pub fn execute_func(func: &AffineFunc, mem: &mut MemoryState) {
    let mut env: HashMap<String, i64> = HashMap::new();
    let Ok(()) = walk_stores(&func.body, &mut env, &mut |s, env| {
        let v = eval_expr(&s.value, env, mem);
        mem.store(&s.dest, env, v);
        Ok::<(), Infallible>(())
    });
}

/// The inclusive trip range of `l` under `env`: the largest lower bound
/// and the smallest upper bound (empty when the second is below the
/// first). Every consumer of loop semantics — interpreter, simulator,
/// replay, stream recorder — reads bounds through here.
///
/// # Panics
///
/// Panics when `l` has no lower or no upper bound, which the IR verifier
/// rejects.
pub fn loop_bounds(l: &ForOp, env: &HashMap<String, i64>) -> (i64, i64) {
    let lb = l
        .lbs
        .iter()
        .map(|b| b.eval_lower(env))
        .max()
        .expect("loop without lower bound");
    let ub = l
        .ubs
        .iter()
        .map(|b| b.eval_upper(env))
        .min()
        .expect("loop without upper bound");
    (lb, ub)
}

/// The one walker of affine semantics: visits every store instance of
/// `ops` in execution order — loops over [`loop_bounds`], `affine.if`
/// bodies only when every guard holds — calling `on_store` with the
/// induction-variable environment of that instance. `env` carries the
/// enclosing loops' values in and is restored when the walk completes.
/// The first `Err` from `on_store` stops the walk and is returned.
///
/// # Panics
///
/// Panics when a loop lacks a bound (see [`loop_bounds`]).
pub fn walk_stores<'a, E, F>(
    ops: &'a [AffineOp],
    env: &mut HashMap<String, i64>,
    on_store: &mut F,
) -> Result<(), E>
where
    F: FnMut(&'a StoreOp, &HashMap<String, i64>) -> Result<(), E>,
{
    for op in ops {
        match op {
            AffineOp::For(l) => {
                let (lb, ub) = loop_bounds(l, env);
                for v in lb..=ub {
                    env.insert(l.iv.clone(), v);
                    walk_stores(&l.body, env, on_store)?;
                }
                env.remove(&l.iv);
            }
            AffineOp::If(i) => {
                if i.conds.iter().all(|c| c.satisfied(env)) {
                    walk_stores(&i.body, env, on_store)?;
                }
            }
            AffineOp::Store(s) => on_store(s, env)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::MemRefDecl;
    use crate::lower::{lower_to_affine, StmtBody};
    use pom_dsl::{reference_execute, DataType, Function};
    use pom_poly::AstBuilder;
    use std::collections::HashMap;

    /// End-to-end semantic equivalence: GEMM through split+interchange vs
    /// the reference interpreter.
    #[test]
    fn transformed_gemm_matches_reference() {
        let n = 6usize;
        let mut f = Function::new("gemm");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let k = f.var("k", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        f.compute(
            "s",
            &[i.clone(), j.clone(), k.clone()],
            a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
            a.access(&[&i, &j]),
        );

        // Reference execution.
        let mut ref_mem = MemoryState::for_function_seeded(&f, 7);
        reference_execute(&f, &mut ref_mem);

        // Transformed execution: tile i,j by 2x3 then interchange intra-
        // tile loops; note GEMM is fully permutable in i and j, and k stays
        // innermost per statement instance ordering... k must keep relative
        // order w.r.t. itself only, which any reordering of (i, j) respects.
        let comp = f.find_compute("s").unwrap();
        let mut sp = comp.to_stmt_poly();
        sp.tile("i", "j", 2, 3, "i0", "j0", "i1", "j1");
        sp.interchange("i1", "j1");
        let mut builder = AstBuilder::new();
        builder.add_stmt(sp);
        let ast = builder.build();

        let bodies: HashMap<String, StmtBody> = [(
            "s".to_string(),
            StmtBody {
                name: "s".into(),
                orig_dims: comp.iter_names(),
                body: comp.body().clone(),
                store: comp.store().clone(),
            },
        )]
        .into();
        let memrefs = f
            .placeholders()
            .iter()
            .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
            .collect();
        let func = lower_to_affine("gemm", memrefs, &ast, &bodies);
        crate::verify::verify(&func).expect("valid IR");

        let mut ir_mem = MemoryState::for_function_seeded(&f, 7);
        execute_func(&func, &mut ir_mem);

        assert_eq!(
            ref_mem.array("A").unwrap().data(),
            ir_mem.array("A").unwrap().data()
        );
    }

    /// Skewing a Jacobi-style time stencil must preserve semantics.
    #[test]
    fn skewed_stencil_matches_reference() {
        let steps = 4i64;
        let width = 10i64;
        let mut f = Function::new("jacobi");
        let t = f.var("t", 1, steps);
        let i = f.var("i", 1, width - 1);
        let b = f.placeholder("B", &[steps as usize, width as usize], DataType::F32);
        let tm1 = t.expr() - 1;
        let im1 = i.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            &[t.clone(), i.clone()],
            (b.at(&[tm1.clone(), im1.clone()])
                + b.at(&[tm1.clone(), i.expr()])
                + b.at(&[tm1.clone(), ip1.clone()]))
                / 3.0,
            b.access(&[&t, &i]),
        );

        let mut ref_mem = MemoryState::for_function_seeded(&f, 3);
        reference_execute(&f, &mut ref_mem);

        let comp = f.find_compute("s").unwrap();
        let mut sp = comp.to_stmt_poly();
        sp.skew("t", "i", 1, "t2", "i2");
        let mut builder = AstBuilder::new();
        builder.add_stmt(sp);
        let bodies: HashMap<String, StmtBody> = [(
            "s".to_string(),
            StmtBody {
                name: "s".into(),
                orig_dims: comp.iter_names(),
                body: comp.body().clone(),
                store: comp.store().clone(),
            },
        )]
        .into();
        let memrefs = f
            .placeholders()
            .iter()
            .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
            .collect();
        let func = lower_to_affine("jacobi", memrefs, &builder.build(), &bodies);
        crate::verify::verify(&func).expect("valid IR");

        let mut ir_mem = MemoryState::for_function_seeded(&f, 3);
        execute_func(&func, &mut ir_mem);
        assert_eq!(
            ref_mem.array("B").unwrap().data(),
            ir_mem.array("B").unwrap().data()
        );
    }
}
