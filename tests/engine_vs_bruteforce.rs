//! Property suite: the decision-search repair engine agrees with the
//! brute-force oracle that enumerates the entire Proposition-1 candidate
//! space, on randomly generated small databases and constraint sets.
//!
//! This is the strongest correctness evidence for the repair semantics:
//! the oracle implements Definitions 6–7 literally (every subset of the
//! atom universe, filtered by `|=_N`, minimised under `≤_D`), with no
//! shared code with the engine's search. A second pool adds the composite
//! shapes: a composite-determinant FD and a composite referential IC.
//! Randomness is the workspace's deterministic [`XorShift`].

use cqa::constraints::{builders, v, Constraint, Ic, IcSet};
use cqa::core::{bruteforce, repairs, RepairConfig};
use cqa::prelude::*;
use cqa::relational::testing::XorShift;
use cqa::relational::DatabaseAtom;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("P", ["a"])
        .relation("R", ["x", "y"])
        .finish()
        .unwrap()
        .into_shared()
}

/// The constraint pool; subsets of it form the random IC sets.
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
        // NNC on R[1] (the referencing side; non-conflicting)
        Constraint::from(builders::not_null(sc, "R", 0).unwrap()),
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
    d
}

/// A random subset of `pool`.
fn subset(rng: &mut XorShift, pool: Vec<Constraint>) -> IcSet {
    let mask = rng.below(1 << pool.len());
    pool.into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| c)
        .collect()
}

/// [`schema`] plus a ternary `T`.
fn composite_schema() -> Arc<Schema> {
    Schema::builder()
        .relation("P", ["a"])
        .relation("R", ["x", "y"])
        .relation("T", ["u", "v", "w"])
        .finish()
        .unwrap()
        .into_shared()
}

/// The second pool: [`pool`] without its NNC, plus a composite-determinant
/// FD and a composite referential IC.
fn composite_pool(sc: &Schema) -> Vec<Constraint> {
    let [ric, uic, key, _nnc, den] = <[Constraint; 5]>::try_from(pool(sc)).unwrap();
    vec![
        ric,
        uic,
        key,
        // Composite-determinant FD: T[1,2] → T[3]
        Constraint::from(builders::functional_dependency(sc, "T", &[0, 1], 2).unwrap()),
        // Composite referential IC: T[1,2] → R[1,2]
        Constraint::from(builders::foreign_key(sc, "T", &[0, 1], "R", &[0, 1]).unwrap()),
        den,
    ]
}

/// [`instance`] plus up to two `T` rows.
fn composite_instance(rng: &mut XorShift, sc: &Arc<Schema>) -> Instance {
    let mut d = instance(rng, sc);
    for _ in 0..rng.below(3) {
        d.insert_named("T", [value(rng), value(rng), value(rng)])
            .unwrap();
    }
    d
}

#[test]
fn engine_equals_oracle() {
    let sc = schema();
    let mut rng = XorShift::new(301);
    let mut checked = 0;
    while checked < 48 {
        let d = instance(&mut rng, &sc);
        let ics = subset(&mut rng, pool(&sc));
        let universe = bruteforce::candidate_universe(&d, &ics);
        if universe.len() > 14 {
            continue; // keep the oracle tractable
        }
        checked += 1;
        let via_engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
        assert_eq!(via_engine, bruteforce::oracle_repairs(&d, &ics));
    }
}

#[test]
fn engine_equals_oracle_on_composite_constraints() {
    let sc = composite_schema();
    let mut rng = XorShift::new(411);
    let mut checked = 0;
    for _ in 0..40 {
        let d = composite_instance(&mut rng, &sc);
        let ics = subset(&mut rng, composite_pool(&sc));
        if bruteforce::candidate_universe(&d, &ics).len() > 14 {
            continue; // keep the oracle tractable
        }
        checked += 1;
        let via_engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
        assert_eq!(via_engine, bruteforce::oracle_repairs(&d, &ics));
    }
    assert!(checked >= 5, "oracle cross-check starved: {checked} cases");
}

#[test]
fn repairs_satisfy_invariants() {
    let sc = schema();
    let mut rng = XorShift::new(302);
    for _ in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics = subset(&mut rng, pool(&sc));
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        // Non-empty (Proposition 1(b)).
        assert!(!reps.is_empty());
        // Every repair consistent.
        for r in &reps {
            assert!(cqa::constraints::is_consistent(r, &ics));
        }
        // Pairwise not strictly dominated.
        for (i, a) in reps.iter().enumerate() {
            for (j, b) in reps.iter().enumerate() {
                if i != j {
                    assert!(!cqa::core::lt_d(&d, a, b).unwrap());
                }
            }
        }
        // Active-domain containment (Proposition 1(a)).
        let mut allowed = d.active_domain();
        allowed.extend(ics.constants());
        allowed.insert(Value::Null);
        for r in &reps {
            for val in r.active_domain() {
                assert!(allowed.contains(&val));
            }
        }
        // Consistent databases are their own single repair.
        if cqa::constraints::is_consistent(&d, &ics) {
            assert_eq!(reps, vec![d.clone()]);
        }
    }
}

#[test]
fn inserted_nulls_only_at_existential_positions() {
    // With only the RIC present, inserted atoms are R(x, null).
    let sc = schema();
    let mut rng = XorShift::new(303);
    for _ in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics: IcSet = pool(&sc).into_iter().take(1).collect();
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        for r in &reps {
            let delta = cqa::relational::delta(&d, r).unwrap();
            for atom in &delta.inserted {
                let DatabaseAtom { rel, tuple } = atom;
                assert_eq!(*rel, sc.rel_id("R").unwrap());
                assert!(tuple.get(1).is_null());
                assert!(!tuple.get(0).is_null());
            }
        }
    }
}
