//! Property suite for Theorem 4: on RIC-acyclic constraint sets, the
//! stable models of the Definition-9 repair program (Corrected style)
//! correspond one-to-one to the repairs found by the direct engine.
//! CQA via cautious reasoning must likewise agree with CQA via repair
//! intersection.
//!
//! The suite also pins the **incremental grounder**: regrounding a live
//! [`GroundingState`] after random fact-delta sequences must produce a
//! ground program equal — as a set of atom-level rules — to grounding the
//! grown program from scratch. Randomness is the workspace's
//! deterministic [`XorShift`].
//!
//! And it pins **Δ-based enumeration CQA**: evaluating each repair as
//! D + Δ on one working copy must answer exactly what materialising every
//! repair and intersecting its answers does.

use cqa::asp::{ground, GroundingState};
use cqa::constraints::{builders, graph, v, CmpOp, Constraint, Ic, IcSet};
use cqa::core::query::{qc, AnswerSemantics};
use cqa::core::{
    consistent_answers, consistent_answers_enumerated_governed, consistent_answers_via_program,
    repair_program, repairs, repairs_via_program, AnswerSet, ConjunctiveQuery, CqaCaches,
    ProgramStyle, Query, RepairConfig,
};
use cqa::prelude::*;
use cqa::relational::testing::XorShift;
use cqa::relational::CancelToken;
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

/// The 6-constraint pool: RIC, UIC, single-column FD, composite-determinant
/// FD, NNC and a denial — every Definition-9-expressible shape the repair
/// program must agree with the engine on.
fn pool(sc: &Schema) -> Vec<Constraint> {
    vec![
        // RIC: P(x) → ∃y R(x,y)
        Constraint::from(
            Ic::builder(sc, "ric")
                .body_atom("P", [v("x")])
                .head_atom("R", [v("x"), v("y")])
                .finish()
                .unwrap(),
        ),
        // UIC chain: T(x,y,z) → P(x)
        Constraint::from(
            Ic::builder(sc, "uic")
                .body_atom("T", [v("x"), v("y"), v("z")])
                .head_atom("P", [v("x")])
                .finish()
                .unwrap(),
        ),
        // key on R[1]
        Constraint::from(builders::functional_dependency(sc, "R", &[0], 1).unwrap()),
        // composite-determinant FD: T[1,2] → T[3]
        Constraint::from(builders::functional_dependency(sc, "T", &[0, 1], 2).unwrap()),
        // NNC on P[1]
        Constraint::from(builders::not_null(sc, "P", 0).unwrap()),
        // denial: T(x, y, _) ∧ R(x, x) → false
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

#[test]
fn theorem4_engine_equals_program() {
    let sc = schema();
    let mut rng = XorShift::new(401);
    for _ in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        let via_engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let via_program = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        assert_eq!(via_engine, via_program);
    }
}

#[test]
fn cqa_direct_equals_cqa_via_program() {
    let sc = schema();
    let mut rng = XorShift::new(402);
    for _ in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        // Q(x): R(x, y) — which first components are certain?
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("R", [cqa::constraints::v("x"), cqa::constraints::v("y")])
            .finish()
            .unwrap()
            .into();
        let via_program = consistent_answers_via_program(
            &d,
            &ics,
            &q,
            ProgramStyle::Corrected,
            AnswerSemantics::IncludeNullAnswers,
        )
        .unwrap();
        let direct = consistent_answers(
            &d,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(direct, via_program);
    }
}

/// Queries over the pool's schema: projection, joins, a null constant,
/// negation, builtins, a boolean query and unions.
fn query_pool(sc: &Schema) -> Vec<Query> {
    let cq = |name: &str, head: &[&str]| ConjunctiveQuery::builder(sc, name, head.to_vec());
    let finish = |b: cqa::core::QueryBuilder<'_>| -> ConjunctiveQuery { b.finish().unwrap() };
    vec![
        finish(cq("proj", &["x"]).atom("R", [v("x"), v("y")])).into(),
        finish(cq("all", &["x", "y"]).atom("R", [v("x"), v("y")])).into(),
        finish(
            cq("join", &["x", "w"])
                .atom("T", [v("x"), v("y"), v("w")])
                .atom("P", [v("x")]),
        )
        .into(),
        finish(cq("nullc", &["x"]).atom("R", [v("x"), qc(Value::Null)])).into(),
        finish(
            cq("neg", &["x"])
                .atom("P", [v("x")])
                .not_atom("R", [v("x"), v("x")]),
        )
        .into(),
        finish(
            cq("cmp", &["x", "y"])
                .atom("R", [v("x"), v("y")])
                .cmp(v("x"), CmpOp::Neq, v("y")),
        )
        .into(),
        finish(cq("bool", &[]).atom("P", [v("x")])).into(),
        Query::union(vec![
            finish(cq("u1", &["x"]).atom("P", [v("x")])),
            finish(cq("u2", &["x"]).atom("R", [v("y"), v("x")])),
            finish(
                cq("u3", &["x"])
                    .atom("T", [v("x"), v("y"), v("z")])
                    .not_atom("P", [v("y")])
                    .cmp(v("z"), CmpOp::Lt, qc(s("c1"))),
            ),
        ])
        .unwrap(),
    ]
}

/// The oracle: materialise every repair, evaluate the query on each,
/// intersect.
fn materialise_and_intersect(
    d: &Instance,
    ics: &IcSet,
    q: &Query,
    config: RepairConfig,
    semantics: AnswerSemantics,
    qsem: QueryNullSemantics,
) -> AnswerSet {
    let mut acc: Option<std::collections::BTreeSet<Tuple>> = None;
    for repair in repairs(d, ics, config).unwrap() {
        let answers = q.eval_with(&repair, qsem);
        acc = Some(match acc {
            None => answers,
            Some(mut seen) => {
                seen.retain(|t| answers.contains(t));
                seen
            }
        });
    }
    let mut tuples = acc.unwrap_or_default();
    if semantics == AnswerSemantics::ExcludeNullAnswers {
        tuples.retain(|t| !t.has_null());
    }
    AnswerSet {
        tuples,
        arity: q.arity(),
    }
}

#[test]
fn delta_enumeration_equals_materialise_and_intersect() {
    let sc = schema();
    let queries = query_pool(&sc);
    let mut rng = XorShift::new(406);
    let mut nonempty = 0;
    for round in 0..40 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for q in &queries {
            for semantics in [
                AnswerSemantics::IncludeNullAnswers,
                AnswerSemantics::ExcludeNullAnswers,
            ] {
                for qsem in [
                    QueryNullSemantics::NullAsValue,
                    QueryNullSemantics::SqlThreeValued,
                ] {
                    let config = RepairConfig::default();
                    let want = materialise_and_intersect(&d, &ics, q, config, semantics, qsem);
                    nonempty += usize::from(!want.is_empty());
                    let got = consistent_answers_enumerated_governed(
                        &d,
                        &ics,
                        q,
                        config,
                        semantics,
                        qsem,
                        &CqaCaches::new(),
                        &CancelToken::never(),
                    )
                    .unwrap();
                    assert_eq!(got, want, "round {round}, {semantics:?}, {qsem:?}, {q:?}");
                }
            }
        }
    }
    assert!(nonempty >= 200, "only {nonempty} non-empty answers");
}

#[test]
fn paper_exact_repairs_are_superset_of_corrected() {
    // The paper-exact program can add spurious deletion models in the
    // all-null-witness corner, but never loses a real repair.
    let sc = schema();
    let mut rng = XorShift::new(403);
    for _ in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        let corrected = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        let paper = repairs_via_program(&d, &ics, ProgramStyle::PaperExact, false).unwrap();
        for r in &corrected {
            assert!(paper.contains(r));
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

#[test]
fn incremental_reground_equals_scratch_over_delta_sequences() {
    // The oracle sweep of the incremental grounder: random instances ×
    // random RIC-acyclic constraint subsets × random fact-delta sequences
    // (insertions via the seminaive worklist, removals via the DRed
    // delete–rederive two-pass — nothing rebuilds). After every delta the
    // live state's ground program must equal — as a set of atom-level
    // rules — a from-scratch grounding of its program.
    let sc = schema();
    let mut rng = XorShift::new(404);
    for round in 0..24 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let program = repair_program(&d, &ics, style).unwrap();
            let mut state = GroundingState::new(&program);
            assert_eq!(
                state.ground_program().resolved_rules(),
                ground(state.program()).resolved_rules(),
                "fresh state, round {round}, {style:?}"
            );
            for step in 0..6 {
                if rng.chance(1, 5) {
                    // Remove a random existing fact (DRed path).
                    let facts = state.program().facts().to_vec();
                    if let Some((pred, args)) = facts.get(rng.below(facts.len().max(1))).cloned() {
                        state.remove_facts([(pred, args)]);
                    }
                } else {
                    let (pred, args) = delta_atom(&mut rng, round, step);
                    state.add_fact_named(pred, args).unwrap();
                }
                let scratch = ground(state.program());
                assert_eq!(
                    state.ground_program().resolved_rules(),
                    scratch.resolved_rules(),
                    "round {round}, step {step}, {style:?}"
                );
            }
        }
    }
}

#[test]
fn deletion_heavy_reground_equals_scratch() {
    // The DRed stress: grow each instance with a burst of insertions,
    // then delete facts (mostly batches, sometimes the same atom twice —
    // the multiset edge) until few remain, checking the atom-level
    // invariant after every step. Deletions dominate 3:1.
    let sc = schema();
    let mut rng = XorShift::new(406);
    for round in 0..12 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let program = repair_program(&d, &ics, style).unwrap();
            let mut state = GroundingState::new(&program);
            for step in 0..4 {
                let (pred, args) = delta_atom(&mut rng, round, step);
                state.add_fact_named(pred, args).unwrap();
            }
            for step in 0..10 {
                let facts = state.program().facts().to_vec();
                if facts.is_empty() {
                    break;
                }
                // A removal batch of 1–3 facts, duplicates allowed (an
                // absent second occurrence must be a no-op).
                let batch: Vec<_> = (0..1 + rng.below(3))
                    .map(|_| facts[rng.below(facts.len())].clone())
                    .collect();
                state.remove_facts(batch);
                let scratch = ground(state.program());
                assert_eq!(
                    state.ground_program().resolved_rules(),
                    scratch.resolved_rules(),
                    "round {round}, deletion step {step}, {style:?}"
                );
            }
        }
    }
}

#[test]
fn alternating_churn_reground_equals_scratch() {
    // Strict insert/delete alternation — the multi-tenant churn shape the
    // grounding cache replays — over both program styles, ending with the
    // CQA-level agreement between routes on the churned instance.
    let sc = schema();
    let mut rng = XorShift::new(407);
    for round in 0..12 {
        let mut d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let program = repair_program(&d, &ics, style).unwrap();
            let mut state = GroundingState::new(&program);
            for step in 0..8 {
                if step % 2 == 0 {
                    let (pred, args) = delta_atom(&mut rng, round, step);
                    state.add_fact_named(pred, args).unwrap();
                } else {
                    let facts = state.program().facts().to_vec();
                    if let Some((pred, args)) = facts.get(rng.below(facts.len().max(1))).cloned() {
                        state.remove_facts([(pred, args)]);
                    }
                }
                let scratch = ground(state.program());
                assert_eq!(
                    state.ground_program().resolved_rules(),
                    scratch.resolved_rules(),
                    "round {round}, churn step {step}, {style:?}"
                );
            }
        }
        // End-to-end on a churned *instance*: mutate d the same way and
        // confirm both CQA routes still agree (the cache layer will replay
        // exactly this kind of drift).
        let atoms: Vec<_> = d.atoms().collect();
        if let Some(atom) = atoms.first() {
            d.remove(atom.rel, &atom.tuple);
        }
        d.insert_named("R", [s(&format!("churn{round}")), value(&mut rng)])
            .unwrap();
        let via_engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let via_program = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        assert_eq!(via_engine, via_program, "churned instance, round {round}");
    }
}
