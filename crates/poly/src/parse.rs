//! A small isl-notation parser for integer sets, for tests, examples, and
//! interactive exploration:
//!
//! ```
//! use pom_poly::parse_set;
//!
//! let s = parse_set("{ [i, j] : 0 <= i < 32 and 0 <= j <= i }").unwrap();
//! assert_eq!(s.count_points(), Ok(32 * 33 / 2));
//! ```
//!
//! Grammar (a pragmatic subset of isl's):
//!
//! ```text
//! set        := '{' '[' dims ']' ( ':' constraint ('and' constraint)* )? '}'
//! constraint := expr (relop expr)+          // chained comparisons allowed
//! expr       := term (('+'|'-') term)*
//! term       := int | ident | int '*'? ident | ident '*' int
//! relop      := '<=' | '<' | '>=' | '>' | '='
//! ```

use crate::constraint::Constraint;
use crate::expr::LinearExpr;
use crate::set::BasicSet;
use std::fmt;

/// A parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses an integer set in isl-like notation.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending token.
pub fn parse_set(input: &str) -> Result<BasicSet, ParseError> {
    let mut p = Parser::new(input);
    p.expect('{')?;
    p.expect('[')?;
    let mut dims: Vec<String> = Vec::new();
    loop {
        let name = p.ident()?;
        dims.push(name);
        if p.eat(',') {
            continue;
        }
        break;
    }
    p.expect(']')?;
    let dim_refs: Vec<&str> = dims.iter().map(String::as_str).collect();
    let mut set = BasicSet::universe(&dim_refs);

    if p.eat(':') {
        loop {
            for c in p.constraint_chain(&dims)? {
                set.add_constraint(c);
            }
            if p.eat_word("and") || p.eat_word("&&") {
                continue;
            }
            break;
        }
    }
    p.expect('}')?;
    p.skip_ws();
    if !p.done() {
        return Err(ParseError(format!("trailing input at {:?}", p.rest())));
    }
    Ok(set)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn done(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(w) {
            let after = self.rest()[w.len()..].chars().next();
            let boundary = !w.chars().next().unwrap_or(' ').is_alphanumeric()
                || !after
                    .map(|c| c.is_alphanumeric() || c == '_')
                    .unwrap_or(false);
            if boundary {
                self.pos += w.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(ParseError(format!("expected '{c}' at {:?}", self.rest())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut chars = self.rest().char_indices();
        match chars.next() {
            Some((_, c)) if c.is_alphabetic() || c == '_' => {}
            _ => {
                return Err(ParseError(format!(
                    "expected identifier at {:?}",
                    self.rest()
                )))
            }
        }
        let mut end = start + 1;
        for (i, c) in chars {
            if c.is_alphanumeric() || c == '_' {
                end = start + i + c.len_utf8();
            } else {
                break;
            }
        }
        let name = &self.src[start..end];
        self.pos = end;
        Ok(name.to_string())
    }

    fn number(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        if self.rest().starts_with('-') {
            end += 1;
        }
        for c in self.src[end..].chars() {
            if c.is_ascii_digit() {
                end += 1;
            } else {
                break;
            }
        }
        if end == start || (end == start + 1 && self.src[start..].starts_with('-')) {
            return Err(ParseError(format!("expected number at {:?}", self.rest())));
        }
        let v: i64 = self.src[start..end]
            .parse()
            .map_err(|e| ParseError(format!("bad number: {e}")))?;
        self.pos = end;
        Ok(v)
    }

    fn term(&mut self, dims: &[String]) -> Result<LinearExpr, ParseError> {
        self.skip_ws();
        let c = self
            .peek()
            .ok_or_else(|| ParseError("unexpected end of input".into()))?;
        if c.is_ascii_digit() || c == '-' {
            let v = self.number()?;
            // Implicit juxtaposition (`2i`) binds only without whitespace;
            // an explicit `*` may be spaced freely.
            if self
                .rest()
                .starts_with(|ch: char| ch.is_alphabetic() || ch == '_')
            {
                let name = self.ident()?;
                self.check_dim(&name, dims)?;
                return Ok(LinearExpr::term(name, v));
            }
            self.skip_ws();
            if self.eat('*') {
                let name = self.ident()?;
                self.check_dim(&name, dims)?;
                return Ok(LinearExpr::term(name, v));
            }
            Ok(LinearExpr::constant_expr(v))
        } else {
            let name = self.ident()?;
            self.check_dim(&name, dims)?;
            self.skip_ws();
            if self.eat('*') {
                let v = self.number()?;
                return Ok(LinearExpr::term(name, v));
            }
            Ok(LinearExpr::var(name))
        }
    }

    fn check_dim(&self, name: &str, dims: &[String]) -> Result<(), ParseError> {
        if dims.iter().any(|d| d == name) {
            Ok(())
        } else {
            Err(ParseError(format!("unknown dimension {name}")))
        }
    }

    fn expr(&mut self, dims: &[String]) -> Result<LinearExpr, ParseError> {
        let mut e = self.term(dims)?;
        loop {
            self.skip_ws();
            if self.eat('+') {
                e = e + self.term(dims)?;
            } else if self.rest().starts_with('-')
                && !self.rest()[1..].starts_with(|c: char| c.is_ascii_digit())
            {
                self.pos += 1;
                e = e - self.term(dims)?;
            } else if self.rest().starts_with('-') {
                // `a - 3`: the term parser would eat the sign as a negative
                // number, which is the same thing.
                e = e + self.term(dims)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn relop(&mut self) -> Option<&'static str> {
        self.skip_ws();
        for op in ["<=", ">=", "<", ">", "="] {
            if self.rest().starts_with(op) {
                self.pos += op.len();
                return Some(op);
            }
        }
        None
    }

    /// Parses `e0 op e1 op e2 …` into pairwise constraints.
    fn constraint_chain(&mut self, dims: &[String]) -> Result<Vec<Constraint>, ParseError> {
        let mut exprs = vec![self.expr(dims)?];
        let mut ops = Vec::new();
        while let Some(op) = self.relop() {
            ops.push(op);
            exprs.push(self.expr(dims)?);
        }
        if ops.is_empty() {
            return Err(ParseError(format!(
                "expected comparison at {:?}",
                self.rest()
            )));
        }
        let mut out = Vec::with_capacity(ops.len());
        for (k, op) in ops.iter().enumerate() {
            let (l, r) = (exprs[k].clone(), exprs[k + 1].clone());
            out.push(match *op {
                "<=" => Constraint::le(l, r),
                "<" => Constraint::lt(l, r),
                ">=" => Constraint::ge(l, r),
                ">" => Constraint::gt(l, r),
                "=" => Constraint::eq(l, r),
                _ => unreachable!(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle() {
        let s = parse_set("{ [i, j] : 0 <= i < 4 and 0 <= j < 3 }").unwrap();
        assert_eq!(s.count_points(), Ok(12));
        assert_eq!(s.contains(&[3, 2]), Ok(true));
        assert_eq!(s.contains(&[4, 0]), Ok(false));
    }

    #[test]
    fn triangle_with_chained_comparisons() {
        let s = parse_set("{ [i, j] : 0 <= j <= i < 5 }").unwrap();
        assert_eq!(s.count_points(), Ok(15));
    }

    #[test]
    fn coefficients_and_constants() {
        let s = parse_set("{ [i] : 2*i <= 7 and i >= -1 }").unwrap();
        // i in [-1, 3]
        assert_eq!(s.count_points(), Ok(5));
        let s = parse_set("{ [i] : 0 <= 2i < 10 }").unwrap();
        assert_eq!(s.count_points(), Ok(5));
    }

    #[test]
    fn equality_and_subtraction() {
        let s = parse_set("{ [i, j] : i - j = 1 and 0 <= i < 5 and 0 <= j < 5 }").unwrap();
        assert_eq!(s.count_points(), Ok(4));
    }

    #[test]
    fn universe_set() {
        let s = parse_set("{ [a, b] }").unwrap();
        assert_eq!(s.dim_count(), 2);
        assert!(s.constraints().is_empty());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_set("[i]").unwrap_err().0.contains("expected '{'"));
        assert!(parse_set("{ [i] : k < 3 }")
            .unwrap_err()
            .0
            .contains("unknown dimension k"));
        assert!(parse_set("{ [i] : i }")
            .unwrap_err()
            .0
            .contains("comparison"));
        assert!(parse_set("{ [i] } extra")
            .unwrap_err()
            .0
            .contains("trailing"));
    }

    #[test]
    fn roundtrip_with_transformations() {
        // Parsed sets plug into the rest of the engine.
        let s = parse_set("{ [t, i] : 0 <= t < 4 and t <= i < t + 6 }").unwrap();
        let stmt = crate::StmtPoly::from_domain("S", s);
        assert_eq!(stmt.domain().count_points(), Ok(24));
    }
}
