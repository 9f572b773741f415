//! Computation expressions for compute bodies.

use pom_poly::{AccessFn, LinearExpr, PolyError};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum (used e.g. for ReLU in DNN workloads).
    Max,
    /// Minimum.
    Min,
}

impl BinOp {
    /// The C operator or function spelling.
    pub fn c_spelling(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Max => "fmax",
            BinOp::Min => "fmin",
        }
    }

    /// True when the operator is spelled as a function call in C.
    pub fn is_call(&self) -> bool {
        matches!(self, BinOp::Max | BinOp::Min)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
}

/// A compute-body expression: loads, iterator values, constants, and
/// arithmetic.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A load from a placeholder.
    Load(AccessFn),
    /// The current value of an affine iterator expression.
    Affine(LinearExpr),
    /// A floating-point literal.
    Const(f64),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
}

impl Expr {
    /// A constant.
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// `max(a, b)`.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(a), Box::new(b))
    }

    /// `min(a, b)`.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Min, Box::new(a), Box::new(b))
    }

    /// All array loads in the expression, left to right.
    pub fn loads(&self) -> Vec<&AccessFn> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads<'a>(&'a self, out: &mut Vec<&'a AccessFn>) {
        match self {
            Expr::Load(a) => out.push(a),
            Expr::Binary(_, l, r) => {
                l.collect_loads(out);
                r.collect_loads(out);
            }
            Expr::Unary(_, e) => e.collect_loads(out),
            Expr::Affine(_) | Expr::Const(_) => {}
        }
    }

    /// Counts each binary/unary operator in the expression tree.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        self.count_ops(&mut c);
        c
    }

    fn count_ops(&self, c: &mut OpCounts) {
        match self {
            Expr::Binary(op, l, r) => {
                match op {
                    BinOp::Add => c.add += 1,
                    BinOp::Sub => c.sub += 1,
                    BinOp::Mul => c.mul += 1,
                    BinOp::Div => c.div += 1,
                    BinOp::Max | BinOp::Min => c.cmp += 1,
                }
                l.count_ops(c);
                r.count_ops(c);
            }
            Expr::Unary(_, e) => {
                c.sub += 1; // negation costs a subtract
                e.count_ops(c);
            }
            Expr::Load(_) => c.load += 1,
            Expr::Affine(_) | Expr::Const(_) => {}
        }
    }

    /// The length of the longest operator chain from any leaf to the root
    /// — the critical path used for latency estimation.
    pub fn depth(&self) -> usize {
        match self {
            Expr::Binary(_, l, r) => 1 + l.depth().max(r.depth()),
            Expr::Unary(_, e) => 1 + e.depth(),
            Expr::Load(_) => 1,
            Expr::Affine(_) | Expr::Const(_) => 0,
        }
    }

    /// Applies an affine substitution to every index expression and affine
    /// leaf (used when lowering through transformed iteration spaces).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a rewritten coefficient
    /// leaves `i64`.
    pub fn substituted(&self, name: &str, replacement: &LinearExpr) -> Result<Expr, PolyError> {
        Ok(match self {
            Expr::Load(a) => Expr::Load(AccessFn::new(
                a.array.clone(),
                a.indices
                    .iter()
                    .map(|e| e.substituted(name, replacement))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Affine(e) => Expr::Affine(e.substituted(name, replacement)?),
            Expr::Const(v) => Expr::Const(*v),
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(l.substituted(name, replacement)?),
                Box::new(r.substituted(name, replacement)?),
            ),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.substituted(name, replacement)?)),
        })
    }
}

/// Operator counts of an expression tree (per compute-body execution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions.
    pub add: usize,
    /// Subtractions (including negations).
    pub sub: usize,
    /// Multiplications.
    pub mul: usize,
    /// Divisions.
    pub div: usize,
    /// Comparisons (max/min).
    pub cmp: usize,
    /// Array loads.
    pub load: usize,
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}

impl From<LinearExpr> for Expr {
    fn from(e: LinearExpr) -> Expr {
        Expr::Affine(e)
    }
}

macro_rules! impl_expr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(rhs))
            }
        }
        impl $trait<f64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f64) -> Expr {
                Expr::Binary($op, Box::new(self), Box::new(Expr::Const(rhs)))
            }
        }
        impl $trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Binary($op, Box::new(Expr::Const(self)), Box::new(rhs))
            }
        }
    };
}

impl_expr_binop!(Add, add, BinOp::Add);
impl_expr_binop!(Sub, sub, BinOp::Sub);
impl_expr_binop!(Mul, mul, BinOp::Mul);
impl_expr_binop!(Div, div, BinOp::Div);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Load(a) => write!(f, "{a}"),
            Expr::Affine(e) => write!(f, "({e})"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Binary(op, l, r) => {
                if op.is_call() {
                    write!(f, "{}({l}, {r})", op.c_spelling())
                } else {
                    write!(f, "({l} {} {r})", op.c_spelling())
                }
            }
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(array: &str, idx: &str) -> Expr {
        Expr::Load(AccessFn::new(array, vec![LinearExpr::var(idx)]))
    }

    #[test]
    fn operator_overloads_build_trees() {
        let e = load("A", "i") + load("B", "i") * load("C", "i");
        match &e {
            Expr::Binary(BinOp::Add, l, r) => {
                assert!(matches!(**l, Expr::Load(_)));
                assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn loads_collected_left_to_right() {
        let e = load("A", "i") + load("B", "i") * load("C", "i");
        let names: Vec<&str> = e.loads().iter().map(|a| a.array.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn op_counts_and_depth() {
        // A + B*C: one add, one mul, three loads; depth 2 through the mul.
        let e = load("A", "i") + load("B", "i") * load("C", "i");
        let c = e.op_counts();
        assert_eq!((c.add, c.mul, c.load), (1, 1, 3));
        assert_eq!(e.depth(), 3); // load(1) -> mul(2) -> add(3)
    }

    #[test]
    fn scalar_mixing() {
        let e = 2.0 * load("A", "i") + 3.0;
        let c = e.op_counts();
        assert_eq!((c.add, c.mul), (1, 1));
    }

    #[test]
    fn substitution_rewrites_indices() {
        let e = load("A", "i") / 4.0;
        let rep = LinearExpr::term("i0", 8) + LinearExpr::var("i1");
        let s = e.substituted("i", &rep).unwrap();
        let loads = s.loads();
        assert_eq!(loads[0].indices[0].coeff("i0"), 8);
    }

    #[test]
    fn display_renders_c_like() {
        let e = Expr::max(load("A", "i"), Expr::constant(0.0));
        assert_eq!(e.to_string(), "fmax(A[i], 0)");
        let e = load("A", "i") - 1.0;
        assert_eq!(e.to_string(), "(A[i] - 1)");
    }
}
