//! Distance and direction vectors (Fig. 1 of the paper).

use std::fmt;

/// One entry of a direction vector: the sign of the corresponding distance
/// entry (`<` positive, `=` zero, `>` negative), or unknown for
/// non-uniform dependences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Distance entry > 0 (dependence flows forward, written `<`).
    Lt,
    /// Distance entry == 0 (written `=`).
    Eq,
    /// Distance entry < 0 (written `>`).
    Gt,
    /// Non-constant entry.
    Unknown,
}

impl Direction {
    /// Classifies a distance entry.
    pub fn from_distance(d: i64) -> Direction {
        match d.cmp(&0) {
            std::cmp::Ordering::Greater => Direction::Lt,
            std::cmp::Ordering::Equal => Direction::Eq,
            std::cmp::Ordering::Less => Direction::Gt,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Unknown => "*",
        };
        write!(f, "{s}")
    }
}

/// True when a distance vector, given outermost entry first, is
/// lexicographically non-negative: its first non-zero entry (if any) is
/// positive, so no dependent instance pair runs in reversed order.
pub fn lex_non_negative(v: impl IntoIterator<Item = i64>) -> bool {
    v.into_iter().find(|&d| d != 0).is_none_or(|d| d > 0)
}

/// A dependence distance vector `d = v_sink - v_source`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DistanceVector(pub Vec<i64>);

impl DistanceVector {
    /// The direction vector derived entry-wise from the distances.
    pub fn direction(&self) -> DirectionVector {
        DirectionVector(
            self.0
                .iter()
                .map(|&d| Direction::from_distance(d))
                .collect(),
        )
    }

    /// True when the vector is lexicographically positive (a genuine
    /// source-before-sink dependence).
    pub fn is_lex_positive(&self) -> bool {
        self.0.iter().find(|&&d| d != 0).is_some_and(|&d| d > 0)
    }

    /// The loop level (0-based, outermost first) that carries the
    /// dependence: the first non-zero entry. `None` for the zero vector
    /// (loop-independent dependence).
    pub fn carried_level(&self) -> Option<usize> {
        self.0.iter().position(|&d| d != 0)
    }

    /// The distance at the carrying level.
    pub fn carried_distance(&self) -> Option<i64> {
        self.carried_level().map(|l| self.0[l])
    }
}

impl fmt::Display for DistanceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// A direction vector, e.g. `(<, <)` in Fig. 1.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DirectionVector(pub Vec<Direction>);

impl fmt::Display for DirectionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_example() {
        // The paper's Fig. 1: d = (1, 1), D = (<, <).
        let d = DistanceVector(vec![1, 1]);
        assert_eq!(
            d.direction(),
            DirectionVector(vec![Direction::Lt, Direction::Lt])
        );
        assert_eq!(d.to_string(), "(1, 1)");
        assert_eq!(d.direction().to_string(), "(<, <)");
        assert!(d.is_lex_positive());
        assert_eq!(d.carried_level(), Some(0));
        assert_eq!(d.carried_distance(), Some(1));
    }

    #[test]
    fn reduction_dependence() {
        // GEMM-style (0, 0, 1): carried at the innermost level.
        let d = DistanceVector(vec![0, 0, 1]);
        assert_eq!(d.carried_level(), Some(2));
        assert!(d.is_lex_positive());
    }

    #[test]
    fn zero_vector_is_loop_independent() {
        let d = DistanceVector(vec![0, 0]);
        assert_eq!(d.carried_level(), None);
        assert!(!d.is_lex_positive());
    }

    #[test]
    fn lex_negative() {
        let d = DistanceVector(vec![0, -1]);
        assert!(!d.is_lex_positive());
        assert_eq!(d.direction().0[1], Direction::Gt);
    }
}
