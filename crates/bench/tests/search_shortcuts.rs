//! The two facts the search reuses instead of recomputing, each checked
//! against the computation it replaced.
//!
//! * Stage 1 scores a trial move on the statement's transformed distance
//!   vectors; a re-analysis of the moved statement finds the same
//!   profile, and the stage-1 schedules are the re-analysing search's.
//! * The resource walk-back steps on per-group QoR composed with the full
//!   schedule's bank muxing; at every step the composition equals the
//!   full compile's DSP/FF/LUT, and a wrong group entry sends the walk
//!   back to one full compile per step, which ends where it always did.

use pom::dse::compile::compile;
use pom::dse::search::ladder::SearchBase;
use pom::dse::search::stage2::{descend, group_compile, step_back, walk_back, ComposedLogic};
use pom::dse::stage1::{dependence_aware_transform, reanalysis_disagreements};
use pom::dse::{DseCache, PhaseAccum};
use pom::hls::ResourceUsage;
use pom::{CompileOptions, DseConfig, Function, GroupConfig};
use pom_bench::serve::{kernel_by_name, SUITE};

const NETWORKS: [&str; 2] = ["vgg16", "resnet18"];

fn kernel(name: &str, size: usize) -> Function {
    kernel_by_name(name, size).expect("known kernel")
}

fn logic(r: &ResourceUsage) -> (u64, u64, u64) {
    (r.dsp, r.ff, r.lut)
}

#[test]
fn stage1_vector_scores_equal_reanalysis() {
    let iters = DseConfig::default().stage1_max_iters;
    for size in [32, 64] {
        for name in SUITE {
            // The networks ignore the size: one run covers them.
            if size == 32 && NETWORKS.contains(&name) {
                continue;
            }
            let bad = reanalysis_disagreements(&kernel(name, size), iters);
            assert!(bad.is_empty(), "{name}@{size}:\n{}", bad.join("\n"));
        }
    }
}

/// The searched design of `f` before its walk-back: the search base and
/// the descent's groups with their per-group QoR.
fn descended(f: &Function) -> (SearchBase, Vec<GroupConfig>, Vec<(u64, ResourceUsage)>) {
    let opts = CompileOptions::for_function(f);
    let cfg = DseConfig::default();
    let base = SearchBase::new(&dependence_aware_transform(f, cfg.stage1_max_iters));
    let d = descend(
        &base,
        &opts,
        &cfg,
        Some(&DseCache::new()),
        &PhaseAccum::default(),
    )
    .expect("descent compiles");
    (base, d.groups, d.qor)
}

/// The walk-back with one full compile per step: halve until the full
/// design fits or nothing is left to shrink.
fn per_step_walk(
    base: &SearchBase,
    start: &[GroupConfig],
    opts: &CompileOptions,
) -> Vec<GroupConfig> {
    let mut groups = start.to_vec();
    loop {
        let full = compile(&base.full().schedule(&groups), opts).expect("compiles");
        if full.qor.resources.fits_logic(&opts.device) || step_back(&mut groups).is_none() {
            return groups;
        }
    }
}

#[test]
fn walk_back_composition_equals_the_full_compile_at_every_step() {
    let inputs = SUITE[..9]
        .iter()
        .map(|&k| (k, 32))
        .chain(NETWORKS.iter().map(|&k| (k, 64)));
    for (name, size) in inputs {
        let f = kernel(name, size);
        let opts = CompileOptions::for_function(&f);
        let acc = PhaseAccum::default();
        let (base, start, qor) = descended(&f);
        let mut groups = start.clone();
        let mut composed = ComposedLogic::new(&base, &groups, &qor);
        let mut steps = 0;
        loop {
            let scheduled = base.full().schedule(&groups);
            let full = compile(&scheduled, &opts).expect("compiles").qor.resources;
            assert_eq!(
                logic(&composed.of(&scheduled, opts.sharing)),
                logic(&full),
                "{name}@{size}: step {steps}, groups {groups:?}"
            );
            steps += 1;
            if full.fits_logic(&opts.device) {
                break;
            }
            let Some(v) = step_back(&mut groups) else {
                break;
            };
            let sub = base.slice(v).sub().function();
            let (_, r) = group_compile(sub, &groups[v], &opts, &acc).expect("compiles");
            composed.set(v, &groups[v], &r);
        }
        if NETWORKS.contains(&name) {
            assert!(steps > 1, "{name}: the walk-back never stepped");
        }
        // The walk-back itself stops on the per-step configuration.
        let mut walked = start.clone();
        walk_back(&base, &mut walked, &qor, &opts, None, &acc).expect("walks back");
        assert_eq!(walked, groups, "{name}@{size}");
    }
}

#[test]
fn a_wrong_group_entry_trips_the_guard_and_the_walk_still_ends_per_step() {
    let f = kernel("vgg16", 64);
    let opts = CompileOptions::for_function(&f);
    let (base, start, qor) = descended(&f);
    let expected = per_step_walk(&base, &start, &opts);
    assert_ne!(expected, start, "vgg16 walks back");
    // Entries claiming no logic at all: the composition fits at once, the
    // confirming compile disagrees, and the guard takes over.
    let wrong: Vec<(u64, ResourceUsage)> = qor
        .iter()
        .map(|&(l, _)| (l, ResourceUsage::zero()))
        .collect();
    let mut groups = start.clone();
    let (scheduled, full) = walk_back(
        &base,
        &mut groups,
        &wrong,
        &opts,
        None,
        &PhaseAccum::default(),
    )
    .expect("walks back");
    assert_eq!(groups, expected);
    assert_eq!(scheduled, base.full().schedule(&expected));
    assert!(full.qor.resources.fits_logic(&opts.device));
}
