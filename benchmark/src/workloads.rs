//! The five workloads: which input programs each one compiles, the order
//! a `--seed` puts them in, and the lock that pins every program's text.
//! Why each workload and input was chosen is recorded in `README.md`.

use crate::stats::{fnv1a, Rng};
use pom::Function;
use std::collections::BTreeSet;

/// What one request of a workload does with its input program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `auto_dse_with` (default greedy config) → HLS C.
    Greedy,
    /// `auto_dse_with` under `SearchMode::Portfolio` + dataflow → HLS C.
    Portfolio,
    /// The greedy winner is prepared untimed; the request is the
    /// sign-off sequence (lint, certificates, simulation, emission).
    Signoff,
    /// Greedy compile against an artifact store: one cold child fills a
    /// fresh store, a second child compiles the same inputs from it.
    StoreRw,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `(kernel, size)` inputs whose winners the traced pass also runs:
    /// reference interpreter, affine interpreter, simulator and dataflow
    /// co-simulation, all O(statement instances).
    pub executed: &'static [(&'static str, usize)],
    /// Inputs that are compiled, timed and certificate-checked only:
    /// too many instances to run (gemm@256 would take minutes), or run
    /// by another workload already.
    pub checked: &'static [(&'static str, usize)],
    /// Kernels that additionally compile at every one of [`ODD_SIZES`],
    /// certificate-checked only.
    pub odd: &'static [&'static str],
    /// Also time `DseConfig::serial_uncached` on every executed input in
    /// the traced child (`dse.serial_uncached_s`,
    /// `dse.fast_over_serial_min`). Only where the serial search is
    /// cheap: serial vgg16 takes seconds.
    pub serial_reference: bool,
}

/// Non-power-of-two sizes, so a cutover cannot be tuned to 32/64/256.
/// Every pass runs all of them: compile time moves with the size by up
/// to 10x and not monotonically (bicg@32 15 ms, bicg@96 3 ms), so a
/// size drawn per seed would move `pass_wall_s` more than any change.
pub const ODD_SIZES: [usize; 6] = [40, 48, 56, 72, 80, 96];

const TABLE3: [&str; 9] = [
    "gemm", "bicg", "gesummv", "2mm", "3mm", "jacobi1d", "jacobi2d", "heat1d", "seidel",
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "table3_greedy",
        kind: Kind::Greedy,
        executed: &[
            ("gemm", 32),
            ("bicg", 32),
            ("gesummv", 32),
            ("2mm", 32),
            ("3mm", 32),
            ("jacobi1d", 32),
            ("jacobi2d", 32),
            ("heat1d", 32),
            ("seidel", 32),
            ("bicg", 256),
            ("gesummv", 256),
            ("jacobi1d", 256),
            ("jacobi2d", 256),
            ("heat1d", 256),
            ("seidel", 256),
        ],
        checked: &[("gemm", 256), ("2mm", 256), ("3mm", 256)],
        odd: &TABLE3,
        serial_reference: true,
    },
    Workload {
        name: "dnn_greedy",
        kind: Kind::Greedy,
        executed: &[
            ("edge_detect", 64),
            ("gaussian", 64),
            ("blur", 64),
            ("vgg16", 64),
        ],
        checked: &[],
        odd: &[],
        serial_reference: false,
    },
    Workload {
        name: "portfolio_sim",
        kind: Kind::Portfolio,
        executed: &[
            ("gemm", 24),
            ("bicg", 64),
            ("jacobi2d", 64),
            ("heat1d", 256),
            ("blur", 64),
        ],
        checked: &[],
        odd: &[],
        serial_reference: false,
    },
    Workload {
        name: "signoff",
        kind: Kind::Signoff,
        executed: &[
            ("gemm", 32),
            ("heat1d", 256),
            ("gaussian", 64),
            ("blur", 64),
            ("bicg", 96),
            ("heat1d", 48),
        ],
        checked: &[],
        odd: &[],
        serial_reference: false,
    },
    Workload {
        name: "store_rw",
        kind: Kind::StoreRw,
        executed: &[("blur", 64)],
        // `dnn_greedy` executes the store-less vgg16 winner, and the
        // store's winners are checked to be identical to it.
        checked: &[("vgg16", 64)],
        odd: &[],
        serial_reference: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One input program: a `pom_bench` kernel at a size.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Input {
    pub kernel: &'static str,
    pub size: usize,
    /// The traced pass runs the winner, not only certifies it.
    pub execute: bool,
}

impl Input {
    pub fn label(&self) -> String {
        format!("{}@{}", self.kernel, self.size)
    }

    /// The DSL program (`vgg16` ignores the size: it is always scale 1).
    pub fn build(&self) -> Option<Function> {
        pom_bench::serve::kernel_by_name(self.kernel, self.size)
    }
}

impl Workload {
    /// Every input of the workload, in table order.
    pub fn inputs(&self) -> Vec<Input> {
        let input = |execute| {
            move |&(kernel, size): &(&'static str, usize)| Input {
                kernel,
                size,
                execute,
            }
        };
        let odd = self.odd.iter().flat_map(|&kernel| {
            ODD_SIZES.iter().map(move |&size| Input {
                kernel,
                size,
                execute: false,
            })
        });
        self.executed
            .iter()
            .map(input(true))
            .chain(self.checked.iter().map(input(false)))
            .chain(odd)
            .collect()
    }
}

/// The requests of one pass, in the order the seed puts them. The seed
/// decides the order (which request finds which process-wide memo warm)
/// and the initial memory every execution starts from, not the set.
pub fn requests(w: &Workload, seed: u64) -> Vec<Input> {
    // Mixing in the name gives each workload its own stream.
    let mut rng = Rng::new(seed ^ fnv1a(w.name.as_bytes()));
    let mut out = w.inputs();
    rng.shuffle(&mut out);
    out
}

/// Every input of any workload, by label.
pub fn all_inputs() -> BTreeSet<Input> {
    WORKLOADS
        .iter()
        .flat_map(Workload::inputs)
        .map(|i| Input {
            execute: false,
            ..i
        })
        .collect()
}

/// `benchmark/inputs.lock`, compiled in: `label hash` per line.
const LOCK: &str = include_str!("../inputs.lock");

/// The lock's hasher over the program's DSL text. `Display` leaves out
/// the iterator bounds, so they are hashed alongside.
pub fn program_hash(f: &Function) -> u64 {
    let mut text = f.to_string();
    for v in f.computes().iter().flat_map(|c| c.iters()) {
        text.push_str(&format!(" {}:{}..{}", v.name(), v.lb(), v.ub()));
    }
    fnv1a(text.as_bytes())
}

fn locked_hash_in(lock: &str, label: &str) -> Option<u64> {
    lock.lines().find_map(|l| {
        let (name, hash) = l.split_once(' ')?;
        if name != label {
            return None;
        }
        u64::from_str_radix(hash.trim(), 16).ok()
    })
}

/// Checks a built input against the lock, so editing `pom_bench::kernels`
/// cannot make the benchmark faster.
pub fn check_lock(input: &Input, f: &Function) -> Result<(), String> {
    let label = input.label();
    match locked_hash_in(LOCK, &label) {
        Some(h) if h == program_hash(f) => Ok(()),
        Some(h) => Err(format!(
            "input-lock mismatch: {label} hashes to {:016x}, lock says {h:016x}",
            program_hash(f)
        )),
        None => Err(format!(
            "input-lock mismatch: {label} is not in inputs.lock"
        )),
    }
}

/// The text of a fresh lock file (`run.sh --relock`).
pub fn render_lock() -> String {
    let mut out = String::new();
    for input in all_inputs() {
        let f = input
            .build()
            .expect("every workload input is a known kernel");
        out.push_str(&format!("{} {:016x}\n", input.label(), program_hash(&f)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_repeat_for_a_seed_and_every_seed_runs_the_same_set() {
        for w in &WORKLOADS {
            let a = requests(w, 11);
            assert_eq!(a, requests(w, 11), "{}", w.name);
            let set = |v: Vec<Input>| v.into_iter().collect::<BTreeSet<_>>();
            let expected = w.executed.len() + w.checked.len() + w.odd.len() * ODD_SIZES.len();
            assert_eq!(a.len(), expected);
            assert_eq!(set(a.clone()).len(), expected, "{}: no input twice", w.name);
            assert_eq!(set(a), set(requests(w, 12)), "{}", w.name);
        }
    }

    #[test]
    fn seeds_change_the_order() {
        let w = workload("table3_greedy").unwrap();
        let orders: BTreeSet<Vec<Input>> = (0..8).map(|s| requests(w, s)).collect();
        assert_eq!(orders.len(), 8, "eight seeds give eight orders");
    }

    #[test]
    fn lock_lookup_and_mismatch() {
        let lock = "gemm@32 00000000000000ff\nbicg@64 0000000000000001\n";
        assert_eq!(locked_hash_in(lock, "gemm@32"), Some(0xff));
        assert_eq!(locked_hash_in(lock, "gemm@3"), None);
        assert_eq!(locked_hash_in(lock, "2mm@32"), None);
    }

    #[test]
    fn committed_lock_matches_the_kernels_and_is_complete() {
        assert_eq!(LOCK, render_lock(), "inputs.lock is stale: run.sh --relock");
        for input in all_inputs() {
            let f = input.build().unwrap();
            assert_eq!(check_lock(&input, &f), Ok(()));
        }
        // A different program under a locked label is refused.
        let gemm = Input {
            kernel: "gemm",
            size: 32,
            execute: false,
        };
        let other = Input {
            kernel: "bicg",
            size: 32,
            execute: false,
        }
        .build()
        .unwrap();
        assert!(check_lock(&gemm, &other).unwrap_err().contains("mismatch"));
    }

    /// Executing a design is O(statement instances); this cap (vgg16 has
    /// 413k) bounds the traced child's run time.
    #[test]
    fn only_small_designs_are_executed() {
        const SIM_INSTANCE_CAP: u64 = 450_000;
        let instances = |f: &Function| -> u64 { f.computes().iter().map(|c| c.trip_count()).sum() };
        for input in WORKLOADS
            .iter()
            .flat_map(Workload::inputs)
            .filter(|i| i.execute)
        {
            let n = instances(&input.build().unwrap());
            assert!(n <= SIM_INSTANCE_CAP, "{} has {n} instances", input.label());
        }
        let gemm256 = Input {
            kernel: "gemm",
            size: 256,
            execute: false,
        };
        assert!(instances(&gemm256.build().unwrap()) > SIM_INSTANCE_CAP);
    }
}
