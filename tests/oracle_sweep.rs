//! Deterministic sweep: engine vs brute-force oracle over every subset
//! of a five-constraint pool on systematically chosen tiny instances.
//! (This sweep is what originally caught the Definition-6 reading bug —
//! see the notes in `cqa_core::repair` — and stays as a regression fence.)

use cqa::constraints::{builders, v, Constraint, Ic, IcSet};
use cqa::core::{bruteforce, repairs};
use cqa::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("P", ["a"])
        .relation("R", ["x", "y"])
        .finish()
        .unwrap()
        .into_shared()
}

fn pool(sc: &Schema) -> Vec<Constraint> {
    vec![
        Constraint::from(
            Ic::builder(sc, "ric")
                .body_atom("P", [v("x")])
                .head_atom("R", [v("x"), v("y")])
                .finish()
                .unwrap(),
        ),
        Constraint::from(
            Ic::builder(sc, "uic")
                .body_atom("R", [v("x"), v("y")])
                .head_atom("P", [v("x")])
                .finish()
                .unwrap(),
        ),
        Constraint::from(builders::functional_dependency(sc, "R", &[0], 1).unwrap()),
        Constraint::from(builders::not_null(sc, "R", 0).unwrap()),
        Constraint::from(
            Ic::builder(sc, "den")
                .body_atom("P", [v("x")])
                .body_atom("R", [v("x"), v("x")])
                .finish()
                .unwrap(),
        ),
    ]
}

#[test]
fn exhaustive_small_sweep() {
    let sc = schema();
    // empty instance, every mask
    for mask in 0u8..32 {
        let d = Instance::empty(sc.clone());
        let ics: IcSet = pool(&sc)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let universe = bruteforce::candidate_universe(&d, &ics);
        if universe.len() > 14 {
            continue;
        }
        let e = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let o = bruteforce::oracle_repairs(&d, &ics);
        if e != o {
            println!("MISMATCH mask={mask} universe={}", universe.len());
            println!(
                "engine: {:?}",
                e.iter()
                    .map(cqa::relational::display::instance_set)
                    .collect::<Vec<_>>()
            );
            println!(
                "oracle: {:?}",
                o.iter()
                    .map(cqa::relational::display::instance_set)
                    .collect::<Vec<_>>()
            );
            panic!();
        }
    }
    // single-tuple instances
    for mask in 0u8..32 {
        for val in [s("c0"), null()] {
            let mut d = Instance::empty(sc.clone());
            d.insert_named("P", [val]).unwrap();
            let ics: IcSet = pool(&sc)
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, c)| c)
                .collect();
            let universe = bruteforce::candidate_universe(&d, &ics);
            if universe.len() > 14 {
                continue;
            }
            let e = repairs(&d, &ics, RepairConfig::default()).unwrap();
            let o = bruteforce::oracle_repairs(&d, &ics);
            if e != o {
                println!("MISMATCH mask={mask} val={val} universe={}", universe.len());
                println!(
                    "engine: {:?}",
                    e.iter()
                        .map(cqa::relational::display::instance_set)
                        .collect::<Vec<_>>()
                );
                println!(
                    "oracle: {:?}",
                    o.iter()
                        .map(cqa::relational::display::instance_set)
                        .collect::<Vec<_>>()
                );
                panic!();
            }
        }
    }
}
