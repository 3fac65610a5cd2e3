//! Oracle suite for the incremental stable-model solver (ISSUE 8).
//!
//! [`resolve_on_state`] carries a [`SolverState`] — per-partition model
//! memo, premise-tagged learned clauses, warm heuristics — across
//! reground deltas. None of that state may ever be observable in the
//! answer: after ANY churn sequence, resolving on the long-lived state
//! must equal resolving on a fresh state, which in turn must equal the
//! monolithic (unpartitioned) enumeration over the same ground program.
//! `resolve_on_state` returns each component's models; the suite forms
//! the whole-program models from them with [`whole_models`].
//!
//! Randomness is the workspace's deterministic [`XorShift`]; the
//! instance/constraint generators mirror `engine_vs_program.rs` so the
//! solver sees the same Definition-9 shapes the grounder oracle pins.

use cqa::asp::{resolve_on_state, stable_models_cancellable, GroundingState, SolverState};
use cqa::constraints::{builders, graph, v, Constraint, Ic, IcSet};
use cqa::core::{repair_program, ProgramStyle};
use cqa::prelude::*;
use cqa::relational::testing::XorShift;
use cqa::CancelToken;
use cqa_bench::whole_models;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("P", ["a"])
        .relation("R", ["x", "y"])
        .relation("T", ["t", "u", "w"])
        .finish()
        .unwrap()
        .into_shared()
}

/// The same 6-constraint pool `engine_vs_program.rs` sweeps: RIC, UIC,
/// single-column FD, composite-determinant FD, NNC and a denial.
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
                .body_atom("T", [v("x"), v("y"), v("z")])
                .head_atom("P", [v("x")])
                .finish()
                .unwrap(),
        ),
        Constraint::from(builders::functional_dependency(sc, "R", &[0], 1).unwrap()),
        Constraint::from(builders::functional_dependency(sc, "T", &[0, 1], 2).unwrap()),
        Constraint::from(builders::not_null(sc, "P", 0).unwrap()),
        Constraint::from(
            Ic::builder(sc, "den")
                .body_atom("T", [v("x"), v("y"), v("z")])
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
    for _ in 0..rng.below(2) {
        d.insert_named("T", [value(rng), value(rng), value(rng)])
            .unwrap();
    }
    d
}

/// Random RIC-acyclic subset of the pool (resampling until acyclic).
fn acyclic_subset(rng: &mut XorShift, sc: &Schema) -> IcSet {
    loop {
        let mask = rng.below(64) as u8;
        let ics: IcSet = pool(sc)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        if graph::is_ric_acyclic(&ics) {
            return ics;
        }
    }
}

/// A fresh atom for the delta stream: unique constants so insertions are
/// genuinely new, plus occasional null/shared values to hit the guard and
/// patch paths.
fn delta_atom(rng: &mut XorShift, round: usize, step: usize) -> (&'static str, Vec<Value>) {
    let fresh = |tag: &str| s(&format!("{tag}{round}_{step}"));
    match rng.below(4) {
        0 => (
            "P",
            vec![if rng.chance(1, 4) { null() } else { fresh("p") }],
        ),
        1 => ("R", vec![fresh("r"), value(rng)]),
        2 => ("T", vec![fresh("t"), value(rng), value(rng)]),
        _ => ("R", vec![value(rng), value(rng)]),
    }
}

/// One random fact delta against a live grounding state: removal of an
/// existing fact 1 time in 4 (the DRed + retraction-log path), insertion
/// otherwise (the seminaive worklist path).
fn churn(state: &mut GroundingState, rng: &mut XorShift, round: usize, step: usize) {
    if rng.chance(1, 4) {
        let facts = state.program().facts().to_vec();
        if let Some((pred, args)) = facts.get(rng.below(facts.len().max(1))).cloned() {
            state.remove_facts([(pred, args)]);
            return;
        }
    }
    let (pred, args) = delta_atom(rng, round, step);
    state.add_fact_named(pred, args).unwrap();
}

#[test]
fn delta_aware_resolve_equals_fresh_resolve_under_churn() {
    // The core soundness oracle for learned-clause reuse, tombstoning,
    // model caching and warm-start: a solver state dragged through an
    // arbitrary churn history answers exactly like one born this instant.
    let sc = schema();
    let mut rng = XorShift::new(501);
    let cancel = CancelToken::never();
    for round in 0..10 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let program = repair_program(&d, &ics, style).unwrap();
            let mut state = GroundingState::new(&program);
            let mut live = SolverState::new();
            for step in 0..6 {
                churn(&mut state, &mut rng, round, step);
                let via_live = whole_models(&resolve_on_state(&state, &mut live, &cancel).unwrap());
                let via_fresh = whole_models(
                    &resolve_on_state(&state, &mut SolverState::new(), &cancel).unwrap(),
                );
                assert_eq!(via_live, via_fresh, "round {round}, step {step}, {style:?}");
            }
            // The long-lived state must actually have exercised the cache
            // (a churn step leaves most partitions as they were), not
            // vacuously agreed.
            assert!(live.stats().partition_hits > 0, "round {round}, {style:?}");
        }
    }
}

#[test]
fn partitioned_resolve_equals_monolithic_over_constraint_pool() {
    // The splitting-theorem oracle at integration scale: per-component
    // solving + cartesian combination must reproduce the monolithic
    // enumeration over every repair-program shape the pool generates.
    let sc = schema();
    let mut rng = XorShift::new(502);
    let cancel = CancelToken::never();
    for round in 0..16 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let program = repair_program(&d, &ics, style).unwrap();
            let state = GroundingState::new(&program);
            let monolithic = stable_models_cancellable(state.ground_program(), &cancel).unwrap();
            let partitioned =
                whole_models(&resolve_on_state(&state, &mut SolverState::new(), &cancel).unwrap());
            assert_eq!(partitioned, monolithic, "round {round}, {style:?}");
        }
    }
}
