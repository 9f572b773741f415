//! Scheduling primitives (Table II of the paper), recorded as data.
//!
//! The DSL decouples algorithm from schedule: primitives are *recorded* on
//! the [`crate::Function`] and replayed by the lowering pipeline onto the
//! polyhedral IR (loop transformations) and the annotated affine dialect
//! (hardware optimizations).

use pom_poly::{PolyError, StmtPoly};
use std::collections::HashMap;
use std::fmt;

/// Array partition styles for `A.partition({t1, t2}, style)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionStyle {
    /// Cyclic partitioning: element `i` goes to bank `i % factor`.
    Cyclic,
    /// Block partitioning: element `i` goes to bank `i / ceil(N/factor)`.
    Block,
    /// Complete partitioning into registers.
    Complete,
}

impl PartitionStyle {
    /// The HLS pragma spelling.
    pub fn pragma_name(&self) -> &'static str {
        match self {
            PartitionStyle::Cyclic => "cyclic",
            PartitionStyle::Block => "block",
            PartitionStyle::Complete => "complete",
        }
    }
}

impl fmt::Display for PartitionStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pragma_name())
    }
}

/// A recorded scheduling primitive (Table II).
#[derive(Clone, Debug, PartialEq)]
pub enum Primitive {
    /// `s.interchange(i, j)`.
    Interchange {
        /// Compute name.
        stmt: String,
        /// First loop level.
        i: String,
        /// Second loop level.
        j: String,
    },
    /// `s.split(i, t, i0, i1)`.
    Split {
        /// Compute name.
        stmt: String,
        /// Loop to split.
        i: String,
        /// Split factor.
        factor: i64,
        /// Outer result loop.
        i0: String,
        /// Inner result loop.
        i1: String,
    },
    /// `s.tile(i, j, t1, t2, i0, j0, i1, j1)`.
    Tile {
        /// Compute name.
        stmt: String,
        /// Outer loop to tile.
        i: String,
        /// Inner loop to tile.
        j: String,
        /// Tile factor for `i`.
        t1: i64,
        /// Tile factor for `j`.
        t2: i64,
        /// Resulting loops, outermost first.
        i0: String,
        /// Tile loop of `j`.
        j0: String,
        /// Intra-tile loop of `i`.
        i1: String,
        /// Intra-tile loop of `j`.
        j1: String,
    },
    /// `s.skew(i, j, f, i2, j2)`: `j2 = f*i + j`.
    Skew {
        /// Compute name.
        stmt: String,
        /// Outer loop.
        i: String,
        /// Loop being skewed.
        j: String,
        /// Skew factor.
        factor: i64,
        /// New outer loop name.
        i2: String,
        /// New skewed loop name.
        j2: String,
    },
    /// `s1.after(s2, j)`: `stmt` executes after `other` at loop level `j`.
    After {
        /// The later compute.
        stmt: String,
        /// The earlier compute.
        other: String,
        /// Shared loop level of `other` (`None` = no shared loops).
        level: Option<String>,
    },
    /// `s.pipeline(i, t)`: pipeline loop `i` with target initiation
    /// interval `t`.
    Pipeline {
        /// Compute name.
        stmt: String,
        /// Loop level to pipeline.
        loop_iv: String,
        /// Target initiation interval.
        ii: i64,
    },
    /// `s.unroll(i, t)`: unroll loop `i` by factor `t`.
    Unroll {
        /// Compute name.
        stmt: String,
        /// Loop level to unroll.
        loop_iv: String,
        /// Unroll factor.
        factor: i64,
    },
    /// `A.partition({t...}, style)`.
    Partition {
        /// Array name.
        array: String,
        /// One factor per array dimension.
        factors: Vec<i64>,
        /// Partition style.
        style: PartitionStyle,
    },
    /// `f.auto_DSE()`: delegate scheduling to the DSE engine.
    AutoDse,
}

impl Primitive {
    /// The compute this primitive targets, if any.
    pub fn stmt(&self) -> Option<&str> {
        match self {
            Primitive::Interchange { stmt, .. }
            | Primitive::Split { stmt, .. }
            | Primitive::Tile { stmt, .. }
            | Primitive::Skew { stmt, .. }
            | Primitive::After { stmt, .. }
            | Primitive::Pipeline { stmt, .. }
            | Primitive::Unroll { stmt, .. } => Some(stmt),
            Primitive::Partition { .. } | Primitive::AutoDse => None,
        }
    }

    /// True for loop transformations (applied on the polyhedral IR).
    pub fn is_loop_transformation(&self) -> bool {
        matches!(
            self,
            Primitive::Interchange { .. }
                | Primitive::Split { .. }
                | Primitive::Tile { .. }
                | Primitive::Skew { .. }
                | Primitive::After { .. }
        )
    }

    /// True for hardware optimizations (applied on the affine dialect).
    pub fn is_hardware_optimization(&self) -> bool {
        matches!(
            self,
            Primitive::Pipeline { .. } | Primitive::Unroll { .. } | Primitive::Partition { .. }
        )
    }

    /// Replays a loop transformation on the statement list (`index` maps
    /// compute names to positions in `stmts`); hardware optimizations and
    /// `auto_DSE` leave the polyhedral statements untouched. The one
    /// replay step shared by lowering and translation validation.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::UnknownIterator`], leaving `stmts`
    /// unchanged, when the primitive names a loop its statement does not
    /// currently have (e.g. splitting an already-split loop by its old
    /// name), and [`ReplayError::Poly`], likewise, when the rewrite's
    /// coefficient arithmetic leaves `i64`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown compute name (the DSL validates those when
    /// the primitive is recorded) and on the transformations' own
    /// preconditions (non-adjacent tile levels, factors below 1).
    pub fn replay(
        &self,
        stmts: &mut [StmtPoly],
        index: &HashMap<String, usize>,
    ) -> Result<(), ReplayError> {
        let known =
            |s: &StmtPoly, names: &[&String]| match names.iter().find(|n| s.dim_index(n).is_none())
            {
                Some(n) => Err(ReplayError::UnknownIterator {
                    iterator: n.to_string(),
                    stmt: s.name().to_string(),
                }),
                None => Ok(()),
            };
        match self {
            Primitive::Interchange { stmt, i, j } => {
                let s = &mut stmts[index[stmt]];
                known(s, &[i, j])?;
                s.interchange(i, j);
            }
            Primitive::Split {
                stmt,
                i,
                factor,
                i0,
                i1,
            } => {
                let s = &mut stmts[index[stmt]];
                known(s, &[i])?;
                s.split(i, *factor, i0, i1)?;
            }
            Primitive::Tile {
                stmt,
                i,
                j,
                t1,
                t2,
                i0,
                j0,
                i1,
                j1,
            } => {
                let s = &mut stmts[index[stmt]];
                known(s, &[i, j])?;
                s.tile(i, j, *t1, *t2, i0, j0, i1, j1)?;
            }
            Primitive::Skew {
                stmt,
                i,
                j,
                factor,
                i2,
                j2,
            } => {
                let s = &mut stmts[index[stmt]];
                known(s, &[i, j])?;
                s.skew(i, j, *factor, i2, j2)?;
            }
            Primitive::After { stmt, other, level } => {
                let snapshot = stmts[index[other]].clone();
                let s = &mut stmts[index[stmt]];
                match level {
                    Some(l) => {
                        known(&snapshot, &[l])?;
                        s.after(&snapshot, l);
                    }
                    None => s.after_all(&snapshot),
                }
            }
            Primitive::Pipeline { .. }
            | Primitive::Unroll { .. }
            | Primitive::Partition { .. }
            | Primitive::AutoDse => {}
        }
        Ok(())
    }
}

/// Why [`Primitive::replay`] could not apply a rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A loop transformation named a loop its statement does not have.
    UnknownIterator {
        /// The iterator name the primitive used.
        iterator: String,
        /// The statement whose current loops were searched.
        stmt: String,
    },
    /// The rewrite's coefficient arithmetic left `i64`.
    Poly(PolyError),
}

impl From<PolyError> for ReplayError {
    fn from(e: PolyError) -> Self {
        ReplayError::Poly(e)
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownIterator { iterator, stmt } => {
                write!(
                    f,
                    "iterator `{iterator}` is not a loop of statement `{stmt}`"
                )
            }
            ReplayError::Poly(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Primitive::Interchange { stmt, i, j } => write!(f, "{stmt}.interchange({i}, {j})"),
            Primitive::Split {
                stmt,
                i,
                factor,
                i0,
                i1,
            } => write!(f, "{stmt}.split({i}, {factor}, {i0}, {i1})"),
            Primitive::Tile {
                stmt,
                i,
                j,
                t1,
                t2,
                i0,
                j0,
                i1,
                j1,
            } => write!(
                f,
                "{stmt}.tile({i}, {j}, {t1}, {t2}, {i0}, {j0}, {i1}, {j1})"
            ),
            Primitive::Skew {
                stmt,
                i,
                j,
                factor,
                i2,
                j2,
            } => write!(f, "{stmt}.skew({i}, {j}, {factor}, {i2}, {j2})"),
            Primitive::After { stmt, other, level } => match level {
                Some(l) => write!(f, "{stmt}.after({other}, {l})"),
                None => write!(f, "{stmt}.after({other})"),
            },
            Primitive::Pipeline { stmt, loop_iv, ii } => {
                write!(f, "{stmt}.pipeline({loop_iv}, {ii})")
            }
            Primitive::Unroll {
                stmt,
                loop_iv,
                factor,
            } => write!(f, "{stmt}.unroll({loop_iv}, {factor})"),
            Primitive::Partition {
                array,
                factors,
                style,
            } => {
                let fs: Vec<String> = factors.iter().map(|x| x.to_string()).collect();
                write!(f, "{array}.partition({{{}}}, \"{style}\")", fs.join(", "))
            }
            Primitive::AutoDse => write!(f, "f.auto_DSE()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let t = Primitive::Tile {
            stmt: "s".into(),
            i: "i".into(),
            j: "j".into(),
            t1: 4,
            t2: 4,
            i0: "i0".into(),
            j0: "j0".into(),
            i1: "i1".into(),
            j1: "j1".into(),
        };
        assert!(t.is_loop_transformation());
        assert!(!t.is_hardware_optimization());
        assert_eq!(t.stmt(), Some("s"));

        let p = Primitive::Pipeline {
            stmt: "s".into(),
            loop_iv: "j0".into(),
            ii: 1,
        };
        assert!(p.is_hardware_optimization());

        let part = Primitive::Partition {
            array: "A".into(),
            factors: vec![4, 4],
            style: PartitionStyle::Cyclic,
        };
        assert!(part.is_hardware_optimization());
        assert_eq!(part.stmt(), None);
    }

    #[test]
    fn display_matches_paper_spelling() {
        let p = Primitive::Partition {
            array: "A".into(),
            factors: vec![4, 4],
            style: PartitionStyle::Cyclic,
        };
        assert_eq!(p.to_string(), "A.partition({4, 4}, \"cyclic\")");
        let s = Primitive::Split {
            stmt: "s".into(),
            i: "i".into(),
            factor: 8,
            i0: "i0".into(),
            i1: "i1".into(),
        };
        assert_eq!(s.to_string(), "s.split(i, 8, i0, i1)");
    }

    #[test]
    fn partition_styles() {
        assert_eq!(PartitionStyle::Cyclic.pragma_name(), "cyclic");
        assert_eq!(PartitionStyle::Block.pragma_name(), "block");
        assert_eq!(PartitionStyle::Complete.pragma_name(), "complete");
    }
}
