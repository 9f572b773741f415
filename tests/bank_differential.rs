//! Property-based differential audit of the bank-conflict analysis
//! (DESIGN.md §12): on randomized stencil nests with randomized cyclic
//! partitionings and unroll factors, every pipelined loop that
//! `pom_verify::bank_report` certifies conflict-free at II = 1 must
//! show *zero* port-stall cycles in the cycle-approximate simulator.
//! The static analysis and the simulator derive their bank mappings
//! independently from the same `hls.array_partition` declarations, so a
//! single stalled-but-certified case means one of the two models
//! partitioning wrongly.

use pom::{
    bank_report, compile, simulate, CompileOptions, DataType, Function, MemoryState, PartitionStyle,
};
use proptest::prelude::*;

/// A randomized 2-D window-sum kernel: `out[i][j] = sum of a[i+di][j+dj]`
/// over a `rows x cols` window of an `n x n` image, pipelined at II = 1
/// with a random split + unroll of `j` and random cyclic partition
/// factors on both arrays. At `n = 62` a split by 8 or 16 leaves a
/// non-rectangular tail over several interior cases, which the analysis
/// enumerates.
#[derive(Clone, Debug)]
struct Case {
    n: i64,
    rows: usize,
    cols: usize,
    split: i64,
    part_a: [i64; 2],
    part_out: [i64; 2],
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (prop_oneof![Just(16i64), Just(62)], 1usize..=3, 1usize..=4),
        prop_oneof![Just(1i64), Just(2), Just(3), Just(4), Just(8), Just(16)],
        (
            prop_oneof![Just(1i64), Just(2), Just(4)],
            prop_oneof![Just(1i64), Just(2), Just(3), Just(4), Just(8), Just(16)],
        ),
        (
            prop_oneof![Just(1i64), Just(2), Just(4)],
            prop_oneof![Just(1i64), Just(2), Just(4), Just(8), Just(16)],
        ),
    )
        .prop_map(|((n, rows, cols), split, (pa0, pa1), (po0, po1))| Case {
            n,
            rows,
            cols,
            split,
            part_a: [pa0, pa1],
            part_out: [po0, po1],
        })
}

fn build(c: &Case) -> Function {
    let n = c.n;
    let mut f = Function::new("wsum");
    let i = f.var("i", 0, n - c.rows as i64);
    let j = f.var("j", 0, n - c.cols as i64);
    let a = f.placeholder("a", &[n as usize, n as usize], DataType::F32);
    let out = f.placeholder("out", &[n as usize, n as usize], DataType::F32);
    let mut e = a.at(&[i.expr(), j.expr()]);
    for di in 0..c.rows as i64 {
        for dj in 0..c.cols as i64 {
            if (di, dj) != (0, 0) {
                e = e + a.at(&[i.expr() + di, j.expr() + dj]);
            }
        }
    }
    f.compute("s", &[i.clone(), j.clone()], e, out.access(&[&i, &j]));
    if c.split > 1 {
        f.split("s", "j", c.split, "jo", "ju");
        f.pipeline("s", "jo", 1);
        f.unroll("s", "ju", c.split);
    } else {
        f.pipeline("s", "j", 1);
    }
    if c.part_a != [1, 1] {
        f.partition("a", &c.part_a, PartitionStyle::Cyclic);
    }
    if c.part_out != [1, 1] {
        f.partition("out", &c.part_out, PartitionStyle::Cyclic);
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn certified_conflict_free_loops_never_stall_on_ports(c in arb_case()) {
        let opts = CompileOptions::default();
        let compiled = compile(&build(&c), &opts).expect("compiles");
        let report = bank_report(&compiled.affine, opts.model.ports_per_bank);

        // Certified-free ivs, conservatively: an iv counts only when
        // every certificate naming it passed (the simulator aggregates
        // its per-loop rows by iv).
        let stained: Vec<&str> = report
            .certificates
            .iter()
            .filter(|cert| !cert.passed())
            .map(|cert| cert.stmt.as_str())
            .collect();
        let free: Vec<&str> = report
            .certificates
            .iter()
            .filter(|cert| cert.passed() && !stained.contains(&cert.stmt.as_str()))
            .map(|cert| cert.stmt.as_str())
            .collect();

        let f = build(&c);
        let mut mem = MemoryState::for_function_seeded(&f, 7);
        let sim = simulate(&compiled.affine, &compiled.deps, &mut mem, &opts.model);
        for l in &sim.loops {
            if free.contains(&l.iv.as_str()) {
                prop_assert_eq!(
                    l.stall_port, 0,
                    "loop {} certified conflict-free but simulated {} port-stall cycle(s) ({:?})",
                    l.iv, l.stall_port, c
                );
            }
        }
    }
}
