//! The equivalences `SearchBase` rests on, with the public one-replay
//! entry points (`schedule_for`, `apply_schedule`, `sub_function`,
//! `canonical_fingerprint`) as the oracle.
//!
//! * A candidate's statements — the slice's statements plus a replay of
//!   the appended primitives — equal a from-scratch replay of its
//!   schedule.
//! * `schedule_for`'s partition factors, read off the stage-1 statements,
//!   equal the factors read off the fully replayed statements by the
//!   `{dim}_g{gi}u` rule they replaced.
//! * The candidate key neither merges schedules that differ nor separates
//!   schedules `canonical_fingerprint` merges.
//! * `plan_groups`' parallel levels are what a per-load dependence
//!   analysis says.

use pom::dse::compile::{apply_schedule, sub_function};
use pom::dse::search::ladder::{plan_groups, schedule_for, SearchBase};
use pom::dse::{canonical_fingerprint, dependence_aware_transform};
use pom::poly::DepKind;
use pom::{DseConfig, Function, GroupConfig, Primitive};
use pom_bench::experiments::bench_sim;
use pom_bench::kernels;
use std::collections::{BTreeMap, HashMap};

fn stage1(f: &Function) -> Function {
    dependence_aware_transform(f, DseConfig::default().stage1_max_iters)
}

/// The configurations a greedy descent of one group moves through when
/// every step takes the preferred escalation, `start` first.
fn descent(start: &GroupConfig) -> Vec<GroupConfig> {
    let cfg = DseConfig::default();
    std::iter::successors(Some(start.clone()), |g| {
        g.escalation_candidates_preferred(&cfg).into_iter().next()
    })
    .collect()
}

/// Every configuration that descent can evaluate: `start`, then at each
/// step all escalations in preferred order.
fn ladder_walk(start: &GroupConfig) -> Vec<GroupConfig> {
    let cfg = DseConfig::default();
    let steps = descent(start);
    std::iter::once(start.clone())
        .chain(
            steps
                .iter()
                .flat_map(|g| g.escalation_candidates_preferred(&cfg)),
        )
        .collect()
}

/// The configuration vector with every group at the last rung of its
/// descent — a multi-group full-function call with every nest tiled.
fn walked_to_the_top(base: &SearchBase) -> Vec<GroupConfig> {
    base.groups()
        .iter()
        .map(|g| descent(g).pop().expect("a descent starts somewhere"))
        .collect()
}

fn members(g: &GroupConfig) -> Vec<&str> {
    g.members.iter().map(String::as_str).collect()
}

#[test]
fn slice_statements_plus_suffix_replay_equal_a_full_replay() {
    for (name, f) in bench_sim::suite(32) {
        let s1 = stage1(&f);
        let base = SearchBase::new(&s1);
        assert_eq!(base.groups(), plan_groups(&s1), "{name}: groups");
        for (gi, g0) in base.groups().iter().enumerate() {
            let sub = sub_function(&s1, &members(g0));
            let slice = base.slice(gi);
            assert_eq!(*slice.sub().function(), sub, "{name}: group {gi} slice");
            for g in ladder_walk(g0) {
                let oracle = schedule_for(&sub, std::slice::from_ref(&g));
                let scheduled = slice.sub().schedule(std::slice::from_ref(&g));
                assert_eq!(scheduled, oracle, "{name}: group {gi} tiles {:?}", g.tiles);
                assert_eq!(
                    slice.sub().stmts_of(&scheduled).expect("replays"),
                    apply_schedule(&oracle),
                    "{name}: group {gi} tiles {:?}",
                    g.tiles
                );
            }
        }
        for groups in [base.groups().to_vec(), walked_to_the_top(&base)] {
            let oracle = schedule_for(&s1, &groups);
            let scheduled = base.full().schedule(&groups);
            assert_eq!(scheduled, oracle, "{name}: full schedule");
            assert_eq!(
                base.full().stmts_of(&scheduled).expect("replays"),
                apply_schedule(&oracle),
                "{name}: full statements"
            );
        }
    }
}

/// The partition primitives `scheduled` must carry under the rule
/// `schedule_for` used before it read the stage-1 statements: replay the
/// *whole* schedule, and give array dimension `d` the product of the
/// tiles whose unrolled loop `{dim}_g{gi}u` its index mentions — and,
/// where every load of a member's stored array sits one fixed nonzero
/// step `k` from the store along `d`, at least the least power of two
/// that does not divide `k`.
fn partitions_by_full_replay(scheduled: &Function, groups: &[GroupConfig]) -> Vec<String> {
    let stmts = apply_schedule(scheduled);
    let mut factors: BTreeMap<&str, Vec<i64>> = scheduled
        .placeholders()
        .iter()
        .map(|p| (p.name(), vec![1; p.shape().len()]))
        .collect();
    for (gi, g) in groups.iter().enumerate() {
        for member in &g.members {
            let idx = scheduled
                .computes()
                .iter()
                .position(|c| c.name() == member)
                .expect("member is a compute");
            let c = &scheduled.computes()[idx];
            let store = stmts[idx].access_to_current(c.store()).unwrap();
            let rows: Vec<_> = c
                .loads()
                .into_iter()
                .filter(|l| l.array == store.array)
                .map(|l| stmts[idx].access_to_current(l).unwrap())
                .collect();
            let shape = scheduled
                .find_placeholder(&store.array)
                .expect("declared array")
                .shape();
            for (d, e) in store.indices.iter().enumerate() {
                let steps: Vec<Option<i64>> = rows
                    .iter()
                    .map(|l| {
                        let mut diff = l.indices[d].clone();
                        diff.add_scaled(e, -1).ok()?;
                        diff.is_constant().then(|| diff.constant())
                    })
                    .collect();
                if let Some(&Some(k)) = steps.first() {
                    if k != 0 && steps.iter().all(|s| *s == Some(k)) {
                        let f = 2i64 << k.unsigned_abs().trailing_zeros();
                        let slot = &mut factors.get_mut(store.array.as_str()).expect("declared")[d];
                        *slot = (*slot).max(f.min(shape[d] as i64));
                    }
                }
            }
            for acc in std::iter::once(c.store()).chain(c.loads()) {
                let shape = scheduled
                    .find_placeholder(&acc.array)
                    .expect("declared array")
                    .shape();
                let cur = stmts[idx].access_to_current(acc).unwrap();
                for (d, e) in cur.indices.iter().enumerate() {
                    let f: i64 = (0..g.dims.len())
                        .filter(|&l| g.tiles[l] > 1 && e.uses(&format!("{}_g{gi}u", g.dims[l])))
                        .map(|l| g.tiles[l])
                        .product();
                    let slot = &mut factors.get_mut(acc.array.as_str()).expect("declared")[d];
                    *slot = (*slot).max(f.min(shape[d] as i64).max(1));
                }
            }
        }
    }
    factors
        .into_iter()
        .filter(|(_, f)| f.iter().any(|&x| x > 1))
        .map(|(array, f)| {
            Primitive::Partition {
                array: array.to_string(),
                factors: f,
                style: pom::PartitionStyle::Cyclic,
            }
            .to_string()
        })
        .collect()
}

fn recorded_partitions(scheduled: &Function, prefix: usize) -> Vec<String> {
    scheduled.schedule()[prefix..]
        .iter()
        .filter(|p| matches!(p, Primitive::Partition { .. }))
        .map(ToString::to_string)
        .collect()
}

#[test]
fn partition_factors_match_the_fully_replayed_rule() {
    let mut partially_fused = 0;
    let mut multi_group = 0;
    for (name, f) in bench_sim::suite(32) {
        let s1 = stage1(&f);
        let base = SearchBase::new(&s1);
        let prefix = s1.schedule().len();
        for (gi, g0) in base.groups().iter().enumerate() {
            let sub = base.slice(gi).sub().function();
            let depths: Vec<usize> = apply_schedule(sub).iter().map(|s| s.dims().len()).collect();
            if depths.iter().any(|&d| d != depths[0]) && matches!(name, "jacobi1d" | "heat1d") {
                partially_fused += 1;
            }
            for g in ladder_walk(g0) {
                let scheduled = schedule_for(sub, std::slice::from_ref(&g));
                assert_eq!(
                    recorded_partitions(&scheduled, sub.schedule().len()),
                    partitions_by_full_replay(&scheduled, std::slice::from_ref(&g)),
                    "{name}: group {gi} tiles {:?}",
                    g.tiles
                );
            }
        }
        let top = walked_to_the_top(&base);
        if top.len() > 1 {
            multi_group += 1;
        }
        let scheduled = schedule_for(&s1, &top);
        assert_eq!(
            recorded_partitions(&scheduled, prefix),
            partitions_by_full_replay(&scheduled, &top),
            "{name}: full-function call"
        );
    }
    assert!(
        partially_fused > 0,
        "no stencil group mixes nest depths any more — pick another partially fused case"
    );
    assert!(multi_group >= 5, "multi-group calls covered: {multi_group}");
}

/// `f` with its `partition` primitives moved behind every other
/// primitive and ordered by where the computes first touch the array —
/// an order alpha-renaming cannot change, unlike `schedule_for`'s
/// array-name order.
fn partitions_in_access_order(f: &Function) -> Function {
    let mut order: Vec<&str> = Vec::new();
    for c in f.computes() {
        for acc in std::iter::once(c.store()).chain(c.loads()) {
            if !order.contains(&acc.array.as_str()) {
                order.push(&acc.array);
            }
        }
    }
    let (mut partitions, rest): (Vec<&Primitive>, Vec<&Primitive>) = f
        .schedule()
        .iter()
        .partition(|p| matches!(p, Primitive::Partition { .. }));
    partitions.sort_by_key(|p| match p {
        Primitive::Partition { array, .. } => order.iter().position(|a| a == array),
        _ => None,
    });
    let mut g = f.clone();
    g.clear_schedule();
    for p in rest.into_iter().chain(partitions) {
        g.record(p.clone());
    }
    g
}

/// `(candidate key, canonical fingerprint of the scheduled sub-function,
/// the same with partitions in access order)` of one configuration.
fn keys(base: &SearchBase, gi: usize, g: &GroupConfig) -> (u64, u64, u64) {
    let slice = base.slice(gi);
    let scheduled = slice.sub().schedule(std::slice::from_ref(g));
    (
        slice.key(g),
        canonical_fingerprint(&scheduled),
        canonical_fingerprint(&partitions_in_access_order(&scheduled)),
    )
}

#[test]
fn candidate_key_merges_exactly_the_alpha_equivalent_schedules() {
    for (name, f) in bench_sim::suite(32) {
        let s1 = stage1(&f);
        let base = SearchBase::new(&s1);
        let mut normalized_of_key: HashMap<u64, u64> = HashMap::new();
        let mut key_of_canonical: HashMap<u64, u64> = HashMap::new();
        let mut configs = 0;
        for (gi, g0) in base.groups().iter().enumerate() {
            for g in ladder_walk(g0) {
                let (key, canonical, normalized) = keys(&base, gi, &g);
                configs += 1;
                // Sound: one key, one schedule up to names and the order
                // of its partition lines.
                assert_eq!(
                    *normalized_of_key.entry(key).or_insert(normalized),
                    normalized,
                    "{name}: group {gi} tiles {:?} shares a key with a different schedule",
                    g.tiles
                );
                // Complete: whatever the rendered form merged still merges.
                assert_eq!(
                    *key_of_canonical.entry(canonical).or_insert(key),
                    key,
                    "{name}: group {gi} tiles {:?} lost a merge",
                    g.tiles
                );
            }
        }
        if matches!(name, "vgg16" | "resnet18") {
            assert!(
                normalized_of_key.len() < configs,
                "{name}: repeated layers must share keys ({configs} configurations)"
            );
        }
    }
}

#[test]
fn gaussian_passes_share_a_key_although_their_partition_lines_sort_differently() {
    // g1: img -> tmp, g2: tmp -> out, same shapes. `schedule_for` emits
    // partitions in array-name order — (img, tmp) against (out, tmp) —
    // so the rendered schedules differ where the designs do not.
    let s1 = stage1(&kernels::gaussian(64));
    let base = SearchBase::new(&s1);
    assert_eq!(base.groups().len(), 2);
    let (walk1, walk2) = (
        ladder_walk(&base.groups()[0]),
        ladder_walk(&base.groups()[1]),
    );
    assert_eq!(walk1.len(), walk2.len());
    let mut rendered_apart = 0;
    for (a, b) in walk1.iter().zip(&walk2) {
        assert_eq!(a.tiles, b.tiles);
        let (key_a, canonical_a, normalized_a) = keys(&base, 0, a);
        let (key_b, canonical_b, normalized_b) = keys(&base, 1, b);
        assert_eq!(key_a, key_b, "tiles {:?}", a.tiles);
        assert_eq!(normalized_a, normalized_b, "tiles {:?}", a.tiles);
        if canonical_a != canonical_b {
            rendered_apart += 1;
        }
    }
    assert!(rendered_apart > 0, "the named case no longer exists");
}

#[test]
fn parallel_levels_match_a_per_load_dependence_analysis() {
    // `plan_groups` runs the output-dependence analysis once per
    // statement; the result must be what running it beside every
    // self-load gives (a level is parallel iff nothing is carried there).
    for (name, f) in bench_sim::suite(32) {
        let s1 = stage1(&f);
        let stmts = apply_schedule(&s1);
        for g in plan_groups(&s1) {
            let mut parallel: Vec<usize> = (0..g.dims.len()).collect();
            for member in &g.members {
                let idx = s1
                    .computes()
                    .iter()
                    .position(|c| c.name() == member)
                    .expect("member is a compute");
                let (c, s) = (&s1.computes()[idx], &stmts[idx]);
                let mut carried = vec![false; s.dims().len()];
                for l in c.loads().into_iter().filter(|l| l.array == c.store().array) {
                    let flow = s.analyze_dependence(c.store(), l, DepKind::Flow);
                    let output = s.analyze_dependence(c.store(), c.store(), DepKind::Output);
                    for level in flow.iter().chain(&output).filter_map(|d| d.carried_level) {
                        carried[level] = true;
                    }
                }
                parallel.retain(|&l| l >= carried.len() || !carried[l]);
            }
            assert_eq!(g.parallel, parallel, "{name}: group {:?}", g.members);
        }
    }
}
