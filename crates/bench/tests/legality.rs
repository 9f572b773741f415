//! One legality model: lint's POM004 and the validator's
//! dependences-preserved / order-preserved obligations call the same
//! checks, so on every input POM004 reports an error exactly when a
//! certificate fails one of those two obligations. The inputs are the
//! suite's DSE winners, Table IV's hand-fused bicg, and three illegal
//! schedules whose only offending rewrite is their last step — each of
//! which the compiled design confirms by diverging from the reference
//! semantics.

use pom::verify::ObligationKind;
use pom::{
    auto_dse, compile, execute_func, reference_execute, CompileOptions, DataType, Function,
    LintCode, Linter, MemoryState,
};
use pom_bench::experiments::tab04;
use pom_bench::serve::{kernel_by_name, SUITE};

/// `(validator rejects, POM004 errors)` for a scheduled function, with
/// the check that a rejection, if any, is of the schedule's last step.
fn verdicts(f: &Function) -> (bool, bool) {
    let report = pom::validate(f);
    let failed: Vec<usize> = report
        .certificates
        .iter()
        .filter(|c| {
            c.failures().any(|o| {
                matches!(
                    o.kind,
                    ObligationKind::DependencesPreserved | ObligationKind::OrderPreserved
                )
            })
        })
        .map(|c| c.step)
        .collect();
    assert!(
        failed.iter().all(|&step| step + 1 == f.schedule().len()),
        "{}: an earlier step fails\n{}",
        f.name(),
        report.render()
    );
    let opts = CompileOptions::default();
    let c = compile(f, &opts).expect("the schedule replays");
    let cx = pom::lint::LintContext::new(&c.affine, &c.deps, &opts.model, &opts.device)
        .with_source(f, &c.stmts);
    let lint = Linter::new()
        .register(pom::lint::analyses::ScheduleLegality)
        .run(&cx);
    let pom004 = !lint.with_code(LintCode::IllegalSchedule).is_empty();
    (!failed.is_empty(), pom004)
}

/// True when the compiled design's memory differs from the DSL
/// reference semantics on seeded inputs.
fn miscompiles(f: &Function) -> bool {
    let c = compile(f, &CompileOptions::default()).expect("the schedule replays");
    let mut reference = MemoryState::for_function_seeded(f, 7);
    reference_execute(f, &mut reference);
    let mut lowered = MemoryState::for_function_seeded(f, 7);
    execute_func(&c.affine, &mut lowered);
    f.computes().iter().any(|c| {
        let a = &c.store().array;
        reference.array(a).unwrap().data() != lowered.array(a).unwrap().data()
    })
}

/// `A[t][i] = A[t-1][i+1] / 2` with `t` and `i` interchanged: the flow
/// distance (1, -1) becomes (-1, 1).
fn interchanged_stencil() -> Function {
    let n = 16;
    let mut f = Function::new("stencil");
    let t = f.var("t", 1, n as i64);
    let i = f.var("i", 0, n as i64 - 1);
    let a = f.placeholder("A", &[n, n], DataType::F32);
    f.compute(
        "s",
        &[t.clone(), i.clone()],
        a.at(&[t.expr() - 1, i.expr() + 1]) * 0.5,
        a.access(&[&t, &i]),
    );
    f.interchange("s", "t", "i");
    f
}

/// `P: A[i] = B[i] + B[i]` then `C: D[i] = A[i + s0] + A[i + s1]` over
/// `i ∈ [0, 8)`, `A` with 16 cells.
fn producer_consumer([s0, s1]: [i64; 2]) -> Function {
    let mut f = Function::new("pc");
    let i = f.var("i", 0, 8);
    let a = f.placeholder("A", &[16], DataType::F32);
    let b = f.placeholder("B", &[8], DataType::F32);
    let d = f.placeholder("D", &[8], DataType::F32);
    let iv = std::slice::from_ref(&i);
    f.compute("P", iv, b.at(&[&i]) + b.at(&[&i]), a.access(&[&i]));
    f.compute(
        "C",
        iv,
        a.at(&[i.expr() + s0]) + a.at(&[i.expr() + s1]),
        d.access(&[&i]),
    );
    f
}

#[test]
fn suite_winners_and_the_manual_bicg_are_legal_to_both() {
    let opts = CompileOptions::default();
    for name in SUITE {
        let f = kernel_by_name(name, 32).expect("a suite kernel");
        let r = auto_dse(&f, &opts).expect("DSE compiles");
        assert_eq!(verdicts(&r.function), (false, false), "{name}");
    }
    assert_eq!(verdicts(&tab04::manual_schedule(32)), (false, false));
}

#[test]
fn illegal_schedules_are_rejected_by_both() {
    // The first load of `A` reads no produced cell; the second does.
    let mut first_load_misses = producer_consumer([8, 0]);
    first_load_misses.after_all("P", "C");
    // Fused under `i` with `P` after `C`: `C` reads `A[i]` first.
    let mut fused_reversed = producer_consumer([0, 0]);
    fused_reversed.after("P", "C", "i");
    for (what, f) in [
        ("interchanged stencil", interchanged_stencil()),
        ("first load misses", first_load_misses),
        ("fused reversed", fused_reversed),
    ] {
        assert_eq!(verdicts(&f), (true, true), "{what}");
        assert!(miscompiles(&f), "{what}");
    }
}
