//! Quasi-affine expressions over named dimensions.
//!
//! A [`LinearExpr`] is `c0 + c1*x1 + ... + cn*xn` where the `xi` are
//! iterator or parameter names. Name-keyed storage means expressions stay
//! valid under loop interchange (which only reorders a dimension *list*)
//! and compose cleanly under substitution (splitting, tiling, skewing).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An integer affine expression over named variables.
///
/// ```
/// use pom_poly::LinearExpr;
///
/// let e = LinearExpr::var("i") * 2 + LinearExpr::var("j") + 3;
/// assert_eq!(e.coeff("i"), 2);
/// assert_eq!(e.constant(), 3);
/// assert_eq!(e.to_string(), "2*i + j + 3");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl LinearExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(c: i64) -> Self {
        LinearExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        LinearExpr { terms, constant: 0 }
    }

    /// A single variable scaled by `coeff`.
    pub fn term(name: impl Into<String>, coeff: i64) -> Self {
        let mut e = LinearExpr::zero();
        e.set_coeff(name, coeff);
        e
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Sets the coefficient of `name`, removing the term when zero.
    pub fn set_coeff(&mut self, name: impl Into<String>, coeff: i64) {
        let name = name.into();
        if coeff == 0 {
            self.terms.remove(&name);
        } else {
            self.terms.insert(name, coeff);
        }
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, c: i64) {
        self.constant = c;
    }

    /// Adds `delta` to the constant term.
    pub fn add_constant(&mut self, delta: i64) {
        self.constant += delta;
    }

    /// Iterates over `(name, coeff)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.terms.iter().map(|(n, &c)| (n.as_str(), c))
    }

    /// Names of all variables with a non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms.keys().map(String::as_str)
    }

    /// True when the expression mentions `name`.
    pub fn uses(&self, name: &str) -> bool {
        self.terms.contains_key(name)
    }

    /// True when the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True when the expression is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// True when the expression is a single variable with coefficient one
    /// and no constant, returning the name.
    pub fn as_single_var(&self) -> Option<&str> {
        if self.constant == 0 && self.terms.len() == 1 {
            let (name, &c) = self.terms.iter().next().expect("len checked");
            if c == 1 {
                return Some(name);
            }
        }
        None
    }

    /// Replaces every occurrence of `name` with `replacement`.
    ///
    /// ```
    /// use pom_poly::reference::LinearExpr;
    /// // i := 8*i0 + i1 applied to (i + 1)
    /// let e = LinearExpr::var("i") + 1;
    /// let rep = LinearExpr::term("i0", 8) + LinearExpr::var("i1");
    /// assert_eq!(e.substituted("i", &rep).to_string(), "8*i0 + i1 + 1");
    /// ```
    pub fn substituted(&self, name: &str, replacement: &LinearExpr) -> LinearExpr {
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(name);
        out + replacement.clone() * c
    }

    /// Renames a variable. The expression must not already use `to`.
    pub fn renamed(&self, from: &str, to: &str) -> LinearExpr {
        let c = self.coeff(from);
        if c == 0 {
            return self.clone();
        }
        debug_assert!(
            !self.uses(to),
            "renaming {from} to {to} would merge distinct terms"
        );
        let mut out = self.clone();
        out.terms.remove(from);
        out.set_coeff(to, c);
        out
    }

    /// Evaluates the expression under a point assignment.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the expression is missing from `point`.
    pub fn eval(&self, point: &HashMap<String, i64>) -> i64 {
        let mut v = self.constant;
        for (name, c) in self.terms() {
            let x = point
                .get(name)
                .unwrap_or_else(|| panic!("missing value for variable {name}"));
            v += c * x;
        }
        v
    }

    /// Evaluates with missing variables treated as zero.
    pub fn eval_partial(&self, point: &HashMap<String, i64>) -> i64 {
        let mut v = self.constant;
        for (name, c) in self.terms() {
            v += c * point.get(name).copied().unwrap_or(0);
        }
        v
    }

    /// The gcd of all variable coefficients (0 when constant).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.values().fold(0, |acc, &c| crate::gcd(acc, c))
    }

    /// Divides all coefficients and the constant by `d`.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient or the constant is not divisible by `d`.
    pub fn exact_div(&self, d: i64) -> LinearExpr {
        assert!(d != 0, "division by zero");
        let mut out = LinearExpr::zero();
        for (name, c) in self.terms() {
            assert!(c % d == 0, "coefficient {c} of {name} not divisible by {d}");
            out.set_coeff(name, c / d);
        }
        assert!(
            self.constant % d == 0,
            "constant {} not divisible by {d}",
            self.constant
        );
        out.constant = self.constant / d;
        out
    }
}

impl From<i64> for LinearExpr {
    fn from(c: i64) -> Self {
        LinearExpr::constant_expr(c)
    }
}

impl From<&LinearExpr> for LinearExpr {
    fn from(e: &LinearExpr) -> Self {
        e.clone()
    }
}

impl Add for LinearExpr {
    type Output = LinearExpr;
    fn add(mut self, rhs: LinearExpr) -> LinearExpr {
        for (name, c) in rhs.terms {
            let v = self.coeff(&name) + c;
            self.set_coeff(name, v);
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<i64> for LinearExpr {
    type Output = LinearExpr;
    fn add(mut self, rhs: i64) -> LinearExpr {
        self.constant += rhs;
        self
    }
}

impl Sub for LinearExpr {
    type Output = LinearExpr;
    fn sub(self, rhs: LinearExpr) -> LinearExpr {
        self + (-rhs)
    }
}

impl Sub<i64> for LinearExpr {
    type Output = LinearExpr;
    fn sub(mut self, rhs: i64) -> LinearExpr {
        self.constant -= rhs;
        self
    }
}

impl Neg for LinearExpr {
    type Output = LinearExpr;
    fn neg(mut self) -> LinearExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for LinearExpr {
    type Output = LinearExpr;
    fn mul(mut self, rhs: i64) -> LinearExpr {
        if rhs == 0 {
            return LinearExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (name, c) in self.terms() {
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { "-" } else { "+" };
                let a = c.abs();
                if a == 1 {
                    write!(f, " {sign} {name}")?;
                } else {
                    write!(f, " {sign} {a}*{name}")?;
                }
            }
        }
        if self.constant != 0 {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant < 0 {
                write!(f, " - {}", -self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}
