//! Cross-strategy oracle: the parallel work-stealing search must produce
//! repair *sequences* — ordered lists of traced repairs, not just sets —
//! byte-identical to the sequential strategy, over random instances and
//! every subset of a constraint pool that includes single-column FDs,
//! composite-determinant FDs and (composite) referential ICs. Small cases
//! are additionally held to the brute-force Definition-6/7 oracle.
//!
//! Enumeration order is part of the paper-facing semantics here (the
//! pinned lexicographic order every display and test in this workspace
//! relies on), so the assertions compare full `Vec<TracedRepair>` values:
//! order, instances, and the decision traces kept through deduplication.

use cqa::constraints::{builders, v, Constraint, Ic, IcSet};
use cqa::core::{bruteforce, repairs, repairs_with_trace, RepairConfig, SearchStrategy};
use cqa::prelude::*;
use cqa::relational::testing::{env_threads, XorShift};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("P", ["a"])
        .relation("R", ["x", "y"])
        .relation("T", ["u", "v", "w"])
        .finish()
        .unwrap()
        .into_shared()
}

/// The constraint pool; subsets of it form the random IC sets. Covers the
/// shapes the parallel scheduler must not reorder: plain and composite
/// FDs, plain and composite referential ICs, a UIC and a denial.
fn pool(sc: &Schema) -> Vec<Constraint> {
    vec![
        // RIC: P(x) → ∃y R(x, y)
        Constraint::from(
            Ic::builder(sc, "ric")
                .body_atom("P", [v("x")])
                .head_atom("R", [v("x"), v("y")])
                .finish()
                .unwrap(),
        ),
        // UIC: R(x,y) → P(x)
        Constraint::from(
            Ic::builder(sc, "uic")
                .body_atom("R", [v("x"), v("y")])
                .head_atom("P", [v("x")])
                .finish()
                .unwrap(),
        ),
        // FD / key on R[1]
        Constraint::from(builders::functional_dependency(sc, "R", &[0], 1).unwrap()),
        // Composite-determinant FD: T[1,2] → T[3]
        Constraint::from(builders::functional_dependency(sc, "T", &[0, 1], 2).unwrap()),
        // Composite referential IC: T[1,2] → R[1,2]
        Constraint::from(builders::foreign_key(sc, "T", &[0, 1], "R", &[0, 1]).unwrap()),
        // denial: P(x) ∧ R(x,x) → false
        Constraint::from(
            Ic::builder(sc, "den")
                .body_atom("P", [v("x")])
                .body_atom("R", [v("x"), v("x")])
                .finish()
                .unwrap(),
        ),
    ]
}

fn value(rng: &mut XorShift) -> Value {
    match rng.below(3) {
        0 => s("c0"),
        1 => s("c1"),
        _ => Value::Null,
    }
}

fn instance(rng: &mut XorShift, sc: &Arc<Schema>) -> Instance {
    let mut d = Instance::empty(sc.clone());
    for _ in 0..rng.below(3) {
        d.insert_named("P", [value(rng)]).unwrap();
    }
    for _ in 0..rng.below(3) {
        d.insert_named("R", [value(rng), value(rng)]).unwrap();
    }
    for _ in 0..rng.below(3) {
        d.insert_named("T", [value(rng), value(rng), value(rng)])
            .unwrap();
    }
    d
}

fn subset(rng: &mut XorShift, sc: &Schema) -> IcSet {
    let mask = rng.below(64) as u8;
    pool(sc)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| c)
        .collect()
}

fn config_for(strategy: SearchStrategy) -> RepairConfig {
    RepairConfig {
        strategy,
        ..RepairConfig::default()
    }
}

#[test]
fn parallel_matches_sequential_and_oracle() {
    let sc = schema();
    let mut rng = XorShift::new(411);
    let strategies = [
        SearchStrategy::Parallel { threads: 1 },
        SearchStrategy::Parallel { threads: 2 },
        SearchStrategy::Parallel { threads: 4 },
        SearchStrategy::Parallel {
            threads: env_threads(4),
        },
    ];
    let mut checked = 0;
    let mut oracle_checked = 0;
    while checked < 40 {
        let d = instance(&mut rng, &sc);
        let ics = subset(&mut rng, &sc);
        let reference = repairs_with_trace(&d, &ics, RepairConfig::default());
        let Ok(reference) = reference else {
            continue; // conflicting set under NullBased: rejected upfront
        };
        checked += 1;
        for strategy in strategies {
            let via = repairs_with_trace(&d, &ics, config_for(strategy)).unwrap();
            assert_eq!(
                via, reference,
                "strategy {strategy:?} diverged from Incremental"
            );
        }
        // Small cases: hold every strategy to the brute-force oracle too.
        let universe = bruteforce::candidate_universe(&d, &ics);
        if universe.len() <= 14 {
            oracle_checked += 1;
            let via_oracle = bruteforce::oracle_repairs(&d, &ics);
            let instances: Vec<Instance> = reference.iter().map(|t| t.instance.clone()).collect();
            assert_eq!(instances, via_oracle, "engine family vs brute force");
        }
    }
    assert!(
        oracle_checked >= 5,
        "oracle cross-check starved: {oracle_checked} cases"
    );
}

#[test]
fn parallel_matches_sequential_on_conflict_heavy_instances() {
    // Denser instances (more interacting violations, deeper trees) with
    // the full pool active — the regime where work stealing actually
    // migrates subtrees between workers.
    let sc = schema();
    let mut rng = XorShift::new(422);
    let ics: IcSet = pool(&sc).into_iter().collect();
    for _ in 0..6 {
        let mut d = Instance::empty(sc.clone());
        for _ in 0..4 {
            d.insert_named("P", [value(&mut rng)]).unwrap();
            d.insert_named("R", [value(&mut rng), value(&mut rng)])
                .unwrap();
            d.insert_named("T", [value(&mut rng), value(&mut rng), value(&mut rng)])
                .unwrap();
        }
        let reference = repairs(&d, &ics, RepairConfig::default()).unwrap();
        assert!(!reference.is_empty());
        for threads in [2usize, 4, 8] {
            let via = repairs(&d, &ics, config_for(SearchStrategy::Parallel { threads })).unwrap();
            assert_eq!(via, reference, "threads={threads}");
        }
    }
}
