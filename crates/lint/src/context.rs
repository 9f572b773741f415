//! The polyhedral context a lint run operates on, plus IR walkers that
//! maintain the loop path and the affine constraint stack. The context
//! carries facts computed without executing the design — the affine IR,
//! its dependences, the schedule source, the liveness report and the
//! dataflow plan's [`DataflowShape`] — never simulation results.

use pom_dsl::Function;
use pom_hls::{CostModel, DepSummary, DeviceSpec};
use pom_ir::{AffineFunc, AffineOp, ForOp, StoreOp};
use pom_live::LiveReport;
use pom_poly::{Constraint, StmtPoly};

/// The scheduled DSL source of a lowered function — required by the
/// schedule-legality analysis (POM004), which compares original and
/// transformed instance orders.
#[derive(Clone, Copy)]
pub struct SourceInfo<'a> {
    /// The scheduled DSL function the affine IR was lowered from.
    pub function: &'a Function,
    /// The transformed polyhedral statements, in compute order.
    pub stmts: &'a [StmtPoly],
}

/// A dataflow plan as the channel-pressure analysis (POM010) reads it:
/// the stages with their estimated latencies and the sized channels
/// between them. It is built from the plan and the compile's own QoR
/// figures, never from a simulation — the lint crate deliberately
/// depends on neither `pom-sim` nor `pom-dataflow`; the sign-off
/// (`pom_dse::signoff::Signoff::lint`) translates its plan into this
/// shape and attaches it with [`LintContext::with_dataflow`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataflowShape {
    /// The stages, in plan order (every channel flows forward).
    pub stages: Vec<StageShape>,
    /// The inter-stage channels.
    pub channels: Vec<ChannelShape>,
}

/// One dataflow stage of a [`DataflowShape`].
#[derive(Clone, Debug, PartialEq)]
pub struct StageShape {
    /// Stage name.
    pub name: String,
    /// Estimated latency of the stage run on its own, in cycles.
    pub latency: u64,
}

/// One sized channel of a [`DataflowShape`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelShape {
    /// The array the channel carries.
    pub array: String,
    /// Producer stage (index into [`DataflowShape::stages`]).
    pub producer: usize,
    /// Consumer stages (indices into [`DataflowShape::stages`]), all
    /// after the producer.
    pub consumers: Vec<usize>,
    /// Configured channel capacity in elements.
    pub capacity: u64,
    /// True for a ping-pong buffer, false for a FIFO.
    pub pingpong: bool,
    /// Exact positional minimal deadlock-free depth of the channel's
    /// element streams.
    pub min_depth: u64,
    /// Distinct elements the producer pushes.
    pub footprint: u64,
    /// The cycles of the producer's own timeline, `[from, to]`, in which
    /// it writes the channel's final values: an element rewritten by an
    /// enclosing reduction loop is final only in that loop's last
    /// iteration.
    pub written: (u64, u64),
}

/// Everything an [`crate::Analysis`] may consult.
#[derive(Clone, Copy)]
pub struct LintContext<'a> {
    /// The lowered, annotated affine function under analysis.
    pub func: &'a AffineFunc,
    /// Loop-carried dependences keyed by (transformed) induction variable.
    pub deps: &'a DepSummary,
    /// Operator cost model (memory ports, op latencies).
    pub model: &'a CostModel,
    /// Target device (BRAM budget for POM003).
    pub device: &'a DeviceSpec,
    /// Scheduled DSL source, when available (enables POM004).
    pub source: Option<SourceInfo<'a>>,
    /// The dataflow plan's stages and channels, when the function is a
    /// dataflow pipeline (enables POM010).
    pub dataflow: Option<&'a DataflowShape>,
    /// `pom-live`'s report on `func`, when the caller already holds it;
    /// the liveness analysis (POM007–POM009) computes it otherwise.
    pub live: Option<&'a LiveReport>,
}

impl<'a> LintContext<'a> {
    /// A context over the affine IR alone (POM004 is skipped).
    pub fn new(
        func: &'a AffineFunc,
        deps: &'a DepSummary,
        model: &'a CostModel,
        device: &'a DeviceSpec,
    ) -> Self {
        LintContext {
            func,
            deps,
            model,
            device,
            source: None,
            dataflow: None,
            live: None,
        }
    }

    /// Attaches the scheduled DSL source and its transformed statements.
    pub fn with_source(mut self, function: &'a Function, stmts: &'a [StmtPoly]) -> Self {
        self.source = Some(SourceInfo { function, stmts });
        self
    }

    /// Attaches the dataflow plan's stages and channels.
    pub fn with_dataflow(mut self, dataflow: &'a DataflowShape) -> Self {
        self.dataflow = Some(dataflow);
        self
    }

    /// Attaches the liveness report of `func`, so the lint run does not
    /// recompute it.
    pub fn with_live(mut self, live: &'a LiveReport) -> Self {
        self.live = Some(live);
        self
    }
}

/// A store site reached by [`walk_stores`]: the op plus the loop path and
/// the conjunction of affine constraints (loop bounds and `if`
/// conditions) governing its execution.
pub struct StoreSite<'a> {
    /// The store.
    pub store: &'a StoreOp,
    /// Enclosing loops, outermost first.
    pub loop_path: &'a [LoopFrame],
    /// Bounds + guards as a conjunction of constraints over the ivs.
    pub constraints: &'a [Constraint],
    /// Number of enclosing `affine.if` conditions that mention each loop
    /// path entry's iv (parallel to `loop_path`). A store guarded on an
    /// iv executes conditionally along it.
    pub guarded_ivs: &'a [String],
}

/// One enclosing loop of a visited op.
#[derive(Clone, Debug)]
pub struct LoopFrame {
    /// Induction variable.
    pub iv: String,
    /// Declared pipeline II, if any.
    pub pipeline_ii: Option<i64>,
    /// Declared unroll factor, if any.
    pub unroll: Option<i64>,
    /// Constant trip count, when the bounds are constant.
    pub trip: Option<i64>,
}

/// Converts a loop's bound lists into constraints over its iv:
/// `iv >= ceil(e/d)` ⟺ `d·iv - e >= 0` and `iv <= floor(e/d)` ⟺
/// `e - d·iv >= 0` (exact for integer ivs since `d > 0`).
pub fn loop_constraints(l: &ForOp) -> Vec<Constraint> {
    let mut out = Vec::new();
    let iv = pom_poly::LinearExpr::var(&l.iv);
    for b in &l.lbs {
        out.push(Constraint::ge_zero(iv.clone() * b.div - b.expr.clone()));
    }
    for b in &l.ubs {
        out.push(Constraint::ge_zero(b.expr.clone() - iv.clone() * b.div));
    }
    out
}

/// Visits every store in the function with its loop path and constraint
/// stack.
pub fn walk_stores(func: &AffineFunc, visit: &mut impl FnMut(StoreSite<'_>)) {
    let mut path: Vec<LoopFrame> = Vec::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut guarded: Vec<String> = Vec::new();
    for op in &func.body {
        walk_store_op(op, &mut path, &mut constraints, &mut guarded, visit);
    }
}

fn walk_store_op(
    op: &AffineOp,
    path: &mut Vec<LoopFrame>,
    constraints: &mut Vec<Constraint>,
    guarded: &mut Vec<String>,
    visit: &mut impl FnMut(StoreSite<'_>),
) {
    match op {
        AffineOp::For(l) => {
            let added = loop_constraints(l);
            let n = added.len();
            constraints.extend(added);
            path.push(LoopFrame {
                iv: l.iv.clone(),
                pipeline_ii: l.attrs.pipeline_ii,
                unroll: l.attrs.unroll_factor,
                trip: l.const_trip_count(),
            });
            for inner in &l.body {
                walk_store_op(inner, path, constraints, guarded, visit);
            }
            path.pop();
            constraints.truncate(constraints.len() - n);
        }
        AffineOp::If(i) => {
            let n = i.conds.len();
            constraints.extend(i.conds.iter().cloned());
            let mut newly_guarded = Vec::new();
            for c in &i.conds {
                for frame in path.iter() {
                    if c.expr.uses(&frame.iv) && !guarded.contains(&frame.iv) {
                        newly_guarded.push(frame.iv.clone());
                    }
                }
            }
            let g = newly_guarded.len();
            guarded.extend(newly_guarded);
            for inner in &i.body {
                walk_store_op(inner, path, constraints, guarded, visit);
            }
            guarded.truncate(guarded.len() - g);
            constraints.truncate(constraints.len() - n);
        }
        AffineOp::Store(s) => visit(StoreSite {
            store: s,
            loop_path: path,
            constraints,
            guarded_ivs: guarded,
        }),
    }
}

/// Visits every loop in the function with its loop path (the path
/// *includes* the visited loop as its last element).
pub fn walk_loops(func: &AffineFunc, visit: &mut impl FnMut(&ForOp, &[LoopFrame])) {
    let mut path: Vec<LoopFrame> = Vec::new();
    for op in &func.body {
        walk_loop_op(op, &mut path, visit);
    }
}

fn walk_loop_op(
    op: &AffineOp,
    path: &mut Vec<LoopFrame>,
    visit: &mut impl FnMut(&ForOp, &[LoopFrame]),
) {
    match op {
        AffineOp::For(l) => {
            path.push(LoopFrame {
                iv: l.iv.clone(),
                pipeline_ii: l.attrs.pipeline_ii,
                unroll: l.attrs.unroll_factor,
                trip: l.const_trip_count(),
            });
            visit(l, path);
            for inner in &l.body {
                walk_loop_op(inner, path, visit);
            }
            path.pop();
        }
        AffineOp::If(i) => {
            for inner in &i.body {
                walk_loop_op(inner, path, visit);
            }
        }
        AffineOp::Store(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;
    use pom_ir::{HlsAttrs, IfOp, MemRefDecl};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    #[test]
    fn store_walker_tracks_path_and_constraints() {
        // for i in 0..7 { if (i >= 1) { A[i] = 1.0 } }
        let mut f = AffineFunc::new("t");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        let store = pom_ir::StoreOp {
            stmt: "s".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("i")]),
            value: pom_dsl::Expr::from(1.0f64),
        };
        let guard = IfOp {
            conds: vec![Constraint::ge_zero(
                LinearExpr::var("i") - LinearExpr::constant_expr(1),
            )],
            body: vec![AffineOp::Store(store)],
        };
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::If(guard)],
        }));

        let mut seen = 0;
        walk_stores(&f, &mut |site| {
            seen += 1;
            assert_eq!(site.loop_path.len(), 1);
            assert_eq!(site.loop_path[0].iv, "i");
            assert_eq!(site.loop_path[0].trip, Some(8));
            // 2 loop bounds + 1 guard.
            assert_eq!(site.constraints.len(), 3);
            assert_eq!(site.guarded_ivs, ["i".to_string()]);
            // The stack must describe exactly 1 <= i <= 7.
            let feasible_at = |v: i64| {
                let mut env = std::collections::HashMap::new();
                env.insert("i".to_string(), v);
                site.constraints.iter().all(|c| c.satisfied(&env))
            };
            assert!(!feasible_at(0));
            assert!(feasible_at(1));
            assert!(feasible_at(7));
            assert!(!feasible_at(8));
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn loop_walker_includes_self_in_path() {
        let mut f = AffineFunc::new("t");
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "j".into(),
                lbs: vec![cb(0)],
                ubs: vec![cb(1)],
                attrs: HlsAttrs::none(),
                body: vec![],
            })],
        }));
        let mut ivs = Vec::new();
        walk_loops(&f, &mut |l, path| {
            ivs.push(l.iv.clone());
            assert_eq!(path.last().unwrap().iv, l.iv);
        });
        assert_eq!(ivs, ["i", "j"]);
    }
}
