//! Quasi-affine expressions over interned dimensions.
//!
//! A [`LinearExpr`] is `c0 + c1*x1 + ... + cn*xn` where the `xi` are
//! iterator or parameter names, interned once into the global symbol
//! table ([`crate::space`]). Coefficients live in an inline small-vector
//! of `(DimId, i64)` pairs sorted by id — cloning an expression with up
//! to four terms is a flat `memcpy` with no heap traffic, and every
//! lookup is a binary search over `u32`s instead of a string-keyed tree
//! walk. The name-keyed API of the original representation is preserved
//! as thin interning shims, so `dsl`, `ir`, and `hls` call sites are
//! unchanged; id-keyed twins (`coeff_id`, `set_coeff_id`, …) serve the
//! hot paths.
//!
//! All arithmetic is overflow-checked. The named operations
//! ([`LinearExpr::add_scaled`], [`LinearExpr::mul_assign`], the
//! substitutions) return [`PolyError::Overflow`]; the operator impls
//! (`+`, `-`, `*`, unary `-`), which build expressions from literals,
//! panic instead of silently wrapping.

use crate::space::{DimId, PolyError};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Inline term capacity: most expressions the toolchain builds (loop
/// bounds, access indices, tiling relations) have at most four terms.
const INLINE_TERMS: usize = 4;

/// A small-vector of `(DimId, coeff)` pairs, sorted by id, no zeros.
#[derive(Clone, Debug)]
enum TermStore {
    Inline {
        len: u8,
        buf: [(DimId, i64); INLINE_TERMS],
    },
    Heap(Vec<(DimId, i64)>),
}

impl TermStore {
    const fn new() -> TermStore {
        TermStore::Inline {
            len: 0,
            buf: [(DimId::placeholder(), 0); INLINE_TERMS],
        }
    }

    #[inline]
    fn as_slice(&self) -> &[(DimId, i64)] {
        match self {
            TermStore::Inline { len, buf } => &buf[..*len as usize],
            TermStore::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [(DimId, i64)] {
        match self {
            TermStore::Inline { len, buf } => &mut buf[..*len as usize],
            TermStore::Heap(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            TermStore::Inline { len, .. } => *len as usize,
            TermStore::Heap(v) => v.len(),
        }
    }

    fn insert(&mut self, idx: usize, item: (DimId, i64)) {
        match self {
            TermStore::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_TERMS {
                    buf.copy_within(idx..n, idx + 1);
                    buf[idx] = item;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(n + 1);
                    v.extend_from_slice(&buf[..idx]);
                    v.push(item);
                    v.extend_from_slice(&buf[idx..n]);
                    *self = TermStore::Heap(v);
                }
            }
            TermStore::Heap(v) => v.insert(idx, item),
        }
    }

    fn remove(&mut self, idx: usize) {
        match self {
            TermStore::Inline { len, buf } => {
                let n = *len as usize;
                buf.copy_within(idx + 1..n, idx);
                *len -= 1;
            }
            TermStore::Heap(v) => {
                v.remove(idx);
            }
        }
    }

    fn clear(&mut self) {
        *self = TermStore::new();
    }

    /// Drops entries whose coefficient is zero, preserving order.
    fn drop_zeros(&mut self) {
        match self {
            TermStore::Inline { len, buf } => {
                let n = *len as usize;
                let mut w = 0;
                for r in 0..n {
                    if buf[r].1 != 0 {
                        buf[w] = buf[r];
                        w += 1;
                    }
                }
                *len = w as u8;
            }
            TermStore::Heap(v) => v.retain(|&(_, c)| c != 0),
        }
    }
}

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
#[derive(Clone, Debug)]
pub struct LinearExpr {
    terms: TermStore,
    constant: i64,
}

impl Default for LinearExpr {
    fn default() -> Self {
        LinearExpr {
            terms: TermStore::new(),
            constant: 0,
        }
    }
}

impl PartialEq for LinearExpr {
    fn eq(&self, other: &Self) -> bool {
        self.constant == other.constant && self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for LinearExpr {}

impl std::hash::Hash for LinearExpr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
        self.constant.hash(state);
    }
}

impl PartialOrd for LinearExpr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinearExpr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.terms
            .as_slice()
            .cmp(other.terms.as_slice())
            .then(self.constant.cmp(&other.constant))
    }
}

impl LinearExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(c: i64) -> Self {
        LinearExpr {
            terms: TermStore::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        LinearExpr::term(name, 1)
    }

    /// A single variable scaled by `coeff`.
    pub fn term(name: impl Into<String>, coeff: i64) -> Self {
        let mut e = LinearExpr::zero();
        if coeff != 0 {
            e.terms.insert(0, (DimId::intern(&name.into()), coeff));
        }
        e
    }

    #[inline]
    fn position(&self, id: DimId) -> Result<usize, usize> {
        self.terms.as_slice().binary_search_by_key(&id, |&(d, _)| d)
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        match DimId::lookup(name) {
            Some(id) => self.coeff_id(id),
            None => 0,
        }
    }

    /// The coefficient of an interned dimension (zero if absent).
    #[inline]
    pub fn coeff_id(&self, id: DimId) -> i64 {
        match self.position(id) {
            Ok(i) => self.terms.as_slice()[i].1,
            Err(_) => 0,
        }
    }

    /// Sets the coefficient of `name`, removing the term when zero.
    pub fn set_coeff(&mut self, name: impl Into<String>, coeff: i64) {
        self.set_coeff_id(DimId::intern(&name.into()), coeff);
    }

    /// Sets the coefficient of an interned dimension.
    pub fn set_coeff_id(&mut self, id: DimId, coeff: i64) {
        match self.position(id) {
            Ok(i) => {
                if coeff == 0 {
                    self.terms.remove(i);
                } else {
                    self.terms.as_mut_slice()[i].1 = coeff;
                }
            }
            Err(i) => {
                if coeff != 0 {
                    self.terms.insert(i, (id, coeff));
                }
            }
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
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the constant leaves `i64`.
    pub fn add_constant(&mut self, delta: i64) -> Result<(), PolyError> {
        let sum = self.constant.checked_add(delta);
        self.constant = sum.ok_or(PolyError::Overflow)?;
        Ok(())
    }

    /// Iterates over `(name, coeff)` pairs with non-zero coefficients, in
    /// interning (id) order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.terms.as_slice().iter().map(|&(d, c)| (d.name(), c))
    }

    /// Iterates over `(DimId, coeff)` pairs, sorted by id.
    #[inline]
    pub fn terms_ids(&self) -> &[(DimId, i64)] {
        self.terms.as_slice()
    }

    /// Mutable access to the raw term slice. Callers must preserve the
    /// canonical invariant: ids stay sorted and no coefficient becomes
    /// zero (gcd division, the only user, guarantees both).
    #[inline]
    pub(crate) fn terms_ids_mut(&mut self) -> &mut [(DimId, i64)] {
        self.terms.as_mut_slice()
    }

    /// Names of all variables with a non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms.as_slice().iter().map(|&(d, _)| d.name())
    }

    /// True when the expression mentions `name`.
    pub fn uses(&self, name: &str) -> bool {
        match DimId::lookup(name) {
            Some(id) => self.uses_id(id),
            None => false,
        }
    }

    /// True when the expression mentions the interned dimension.
    #[inline]
    pub fn uses_id(&self, id: DimId) -> bool {
        self.position(id).is_ok()
    }

    /// True when the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.len() == 0
    }

    /// True when the expression is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.terms.len() == 0 && self.constant == 0
    }

    /// True when the expression is a single variable with coefficient one
    /// and no constant, returning the name.
    pub fn as_single_var(&self) -> Option<&str> {
        if self.constant == 0 && self.terms.len() == 1 {
            let (d, c) = self.terms.as_slice()[0];
            if c == 1 {
                return Some(d.name());
            }
        }
        None
    }

    /// Adds `k * rhs` into `self`, checking for overflow.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when any coefficient or the
    /// constant leaves `i64` range; `self` may be partially updated.
    pub fn add_scaled(&mut self, rhs: &LinearExpr, k: i64) -> Result<(), PolyError> {
        if k == 0 {
            return Ok(());
        }
        for &(id, c) in rhs.terms.as_slice() {
            let scaled = c.checked_mul(k).ok_or(PolyError::Overflow)?;
            match self.position(id) {
                Ok(i) => {
                    let slot = &mut self.terms.as_mut_slice()[i].1;
                    *slot = slot.checked_add(scaled).ok_or(PolyError::Overflow)?;
                }
                Err(i) => self.terms.insert(i, (id, scaled)),
            }
        }
        self.terms.drop_zeros();
        let scaled = rhs.constant.checked_mul(k).ok_or(PolyError::Overflow)?;
        self.constant = self
            .constant
            .checked_add(scaled)
            .ok_or(PolyError::Overflow)?;
        Ok(())
    }

    /// Multiplies every coefficient and the constant by `k`, checked.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on `i64` overflow.
    pub fn mul_assign(&mut self, k: i64) -> Result<(), PolyError> {
        if k == 0 {
            self.terms.clear();
            self.constant = 0;
            return Ok(());
        }
        for (_, c) in self.terms.as_mut_slice() {
            *c = c.checked_mul(k).ok_or(PolyError::Overflow)?;
        }
        self.constant = self.constant.checked_mul(k).ok_or(PolyError::Overflow)?;
        Ok(())
    }

    /// Replaces every occurrence of `name` with `replacement`.
    ///
    /// ```
    /// use pom_poly::LinearExpr;
    /// // i := 8*i0 + i1 applied to (i + 1)
    /// let e = LinearExpr::var("i") + 1;
    /// let rep = LinearExpr::term("i0", 8) + LinearExpr::var("i1");
    /// assert_eq!(e.substituted("i", &rep).unwrap().to_string(), "8*i0 + i1 + 1");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the substitution's scaled
    /// addition leaves `i64` range (e.g. a near-`i64::MAX` skew factor).
    pub fn substituted(
        &self,
        name: &str,
        replacement: &LinearExpr,
    ) -> Result<LinearExpr, PolyError> {
        match DimId::lookup(name) {
            Some(id) => self.substituted_id(id, replacement),
            None => Ok(self.clone()),
        }
    }

    /// Id-keyed [`LinearExpr::substituted`].
    ///
    /// # Errors
    ///
    /// As [`LinearExpr::substituted`].
    pub fn substituted_id(
        &self,
        id: DimId,
        replacement: &LinearExpr,
    ) -> Result<LinearExpr, PolyError> {
        let c = self.coeff_id(id);
        if c == 0 {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        out.set_coeff_id(id, 0);
        out.add_scaled(replacement, c)?;
        Ok(out)
    }

    /// Simultaneously substitutes several dimensions. Unlike chained
    /// [`LinearExpr::substituted`] calls, replacements are not themselves
    /// rewritten — exactly the capture-avoiding semantics the transform
    /// layer needs when original and current iterator names coincide.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on `i64` overflow.
    pub fn substituted_many(&self, subs: &[(DimId, &LinearExpr)]) -> Result<LinearExpr, PolyError> {
        let mut out = self.clone();
        let mut touched = false;
        for &(id, rep) in subs {
            let c = self.coeff_id(id);
            if c == 0 {
                continue;
            }
            if !touched {
                // Remove every substituted dim first so a replacement that
                // mentions another substituted name is not re-rewritten.
                for &(id2, _) in subs {
                    out.set_coeff_id(id2, 0);
                }
                touched = true;
            }
            out.add_scaled(rep, c)?;
        }
        Ok(out)
    }

    /// Renames a variable. The expression must not already use `to`.
    pub fn renamed(&self, from: &str, to: &str) -> LinearExpr {
        let Some(from_id) = DimId::lookup(from) else {
            return self.clone();
        };
        let c = self.coeff_id(from_id);
        if c == 0 {
            return self.clone();
        }
        debug_assert!(
            !self.uses(to),
            "renaming {from} to {to} would merge distinct terms"
        );
        let mut out = self.clone();
        out.set_coeff_id(from_id, 0);
        out.set_coeff_id(DimId::intern(to), c);
        out
    }

    /// Evaluates the expression under a point assignment.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the expression is missing from `point`.
    pub fn eval(&self, point: &HashMap<String, i64>) -> i64 {
        let mut v = self.constant;
        for &(id, c) in self.terms.as_slice() {
            let name = id.name();
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
        for &(id, c) in self.terms.as_slice() {
            v += c * point.get(id.name()).copied().unwrap_or(0);
        }
        v
    }

    /// The gcd of all variable coefficients (0 when constant).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms
            .as_slice()
            .iter()
            .fold(0, |acc, &(_, c)| crate::gcd(acc, c))
    }

    /// Divides all coefficients and the constant by `d`.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient or the constant is not divisible by `d`.
    pub fn exact_div(&self, d: i64) -> LinearExpr {
        assert!(d != 0, "division by zero");
        let mut out = self.clone();
        for (id, c) in out.terms.as_mut_slice() {
            assert!(
                *c % d == 0,
                "coefficient {c} of {} not divisible by {d}",
                id.name()
            );
            *c /= d;
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

/// The operators build expressions from literals, so a result outside
/// `i64` is a bug in the caller, not an input to report.
const OPERATOR_OVERFLOW: &str = "LinearExpr operator overflowed i64";

impl Add for LinearExpr {
    type Output = LinearExpr;
    fn add(mut self, rhs: LinearExpr) -> LinearExpr {
        self.add_scaled(&rhs, 1).expect(OPERATOR_OVERFLOW);
        self
    }
}

impl Add<i64> for LinearExpr {
    type Output = LinearExpr;
    fn add(mut self, rhs: i64) -> LinearExpr {
        self.add_constant(rhs).expect(OPERATOR_OVERFLOW);
        self
    }
}

impl Sub for LinearExpr {
    type Output = LinearExpr;
    fn sub(mut self, rhs: LinearExpr) -> LinearExpr {
        self.add_scaled(&rhs, -1).expect(OPERATOR_OVERFLOW);
        self
    }
}

impl Sub<i64> for LinearExpr {
    type Output = LinearExpr;
    fn sub(mut self, rhs: i64) -> LinearExpr {
        self.add_constant(rhs.checked_neg().expect(OPERATOR_OVERFLOW))
            .expect(OPERATOR_OVERFLOW);
        self
    }
}

impl Neg for LinearExpr {
    type Output = LinearExpr;
    fn neg(mut self) -> LinearExpr {
        self.mul_assign(-1).expect(OPERATOR_OVERFLOW);
        self
    }
}

impl Mul<i64> for LinearExpr {
    type Output = LinearExpr;
    fn mul(mut self, rhs: i64) -> LinearExpr {
        self.mul_assign(rhs).expect(OPERATOR_OVERFLOW);
        self
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Render in name order (the original BTreeMap iteration order) so
        // printed artifacts stay byte-identical across interning orders.
        let mut named: Vec<(&str, i64)> = self.terms().collect();
        named.sort_unstable_by_key(|&(n, _)| n);
        let mut first = true;
        for (name, c) in named {
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { "-" } else { "+" };
                let a = c.unsigned_abs();
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
                write!(f, " - {}", self.constant.unsigned_abs())?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let e = LinearExpr::var("i") * 3 + LinearExpr::var("j") - 4;
        assert_eq!(e.coeff("i"), 3);
        assert_eq!(e.coeff("j"), 1);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.constant(), -4);
        assert!(!e.is_constant());
        assert!(!e.is_zero());
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let e = LinearExpr::var("i") - LinearExpr::var("i");
        assert!(e.is_zero());
        assert_eq!(e.vars().count(), 0);
    }

    #[test]
    fn arithmetic() {
        let i = LinearExpr::var("i");
        let j = LinearExpr::var("j");
        let e = (i.clone() + j.clone()) * 2 - (i - 1);
        assert_eq!(e.coeff("i"), 1);
        assert_eq!(e.coeff("j"), 2);
        assert_eq!(e.constant(), 1);
    }

    #[test]
    fn eval_matches_expected() {
        let e = LinearExpr::var("i") * 2 + LinearExpr::var("j") + 3;
        assert_eq!(e.eval(&point(&[("i", 4), ("j", -1)])), 10);
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn eval_panics_on_missing_var() {
        LinearExpr::var("i").eval(&point(&[]));
    }

    #[test]
    fn substitution_tiling_relation() {
        // i := 8*i0 + i1 into 2*i + 5
        let e = LinearExpr::var("i") * 2 + 5;
        let rep = LinearExpr::term("i0", 8) + LinearExpr::var("i1");
        let s = e.substituted("i", &rep).unwrap();
        assert_eq!(s.coeff("i0"), 16);
        assert_eq!(s.coeff("i1"), 2);
        assert_eq!(s.constant(), 5);
    }

    #[test]
    fn substitution_is_noop_without_var() {
        let e = LinearExpr::var("j") + 1;
        let s = e.substituted("i", &LinearExpr::constant_expr(7)).unwrap();
        assert_eq!(s, e);
    }

    #[test]
    fn rename_moves_coefficient() {
        let e = LinearExpr::var("i") * 2 + LinearExpr::var("j");
        let r = e.renamed("i", "t");
        assert_eq!(r.coeff("t"), 2);
        assert_eq!(r.coeff("i"), 0);
        assert_eq!(r.coeff("j"), 1);
    }

    #[test]
    fn as_single_var_detection() {
        assert_eq!(LinearExpr::var("i").as_single_var(), Some("i"));
        assert_eq!((LinearExpr::var("i") + 1).as_single_var(), None);
        assert_eq!((LinearExpr::var("i") * 2).as_single_var(), None);
        assert_eq!(LinearExpr::constant_expr(3).as_single_var(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(LinearExpr::zero().to_string(), "0");
        assert_eq!(LinearExpr::constant_expr(-3).to_string(), "-3");
        let e = LinearExpr::var("i") * -1 + LinearExpr::var("j") * 2 - 7;
        assert_eq!(e.to_string(), "-i + 2*j - 7");
    }

    #[test]
    fn display_orders_terms_by_name_not_interning_order() {
        // Interning order b-then-a must not leak into rendering.
        let e = LinearExpr::var("zz_display") + LinearExpr::var("aa_display");
        assert_eq!(e.to_string(), "aa_display + zz_display");
    }

    #[test]
    fn exact_division() {
        let e = (LinearExpr::var("i") * 4 + 8).exact_div(4);
        assert_eq!(e.coeff("i"), 1);
        assert_eq!(e.constant(), 2);
    }

    #[test]
    fn coeff_gcd_values() {
        let e = LinearExpr::var("i") * 6 + LinearExpr::var("j") * 9 + 1;
        assert_eq!(e.coeff_gcd(), 3);
        assert_eq!(LinearExpr::constant_expr(5).coeff_gcd(), 0);
    }

    #[test]
    fn inline_spills_to_heap_beyond_four_terms() {
        let mut e = LinearExpr::zero();
        for (k, n) in ["a", "b", "c", "d", "e", "f"].iter().enumerate() {
            e.set_coeff(format!("spill_{n}"), k as i64 + 1);
        }
        assert_eq!(e.vars().count(), 6);
        assert_eq!(e.coeff("spill_f"), 6);
        let f = e.clone() + e.clone();
        assert_eq!(f.coeff("spill_a"), 2);
        assert_eq!(f.coeff("spill_f"), 12);
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let big = LinearExpr::var("i") * (i64::MAX / 2);
        let mut doubled = big.clone();
        assert_eq!(doubled.add_scaled(&big, 3), Err(PolyError::Overflow));
        let e = LinearExpr::var("j");
        let rep = LinearExpr::var("i") * (i64::MAX / 2);
        // j := rep scaled by 4 overflows.
        let source = LinearExpr::var("j") * 4;
        assert_eq!(source.substituted("j", &rep), Err(PolyError::Overflow));
        assert!(e.substituted("j", &rep).is_ok());
    }
}
