//! Oracle suite for the fast-path planner: on every combination the
//! planner dispatches to a polynomial route, its answers must be
//! byte-identical to repair-based enumeration
//! (`consistent_answers_enumerated`) *and* to cautious reasoning over the
//! repair program (`consistent_answers_via_program`), across the PR-4
//! 6-constraint pool × random instances × both answer semantics × both
//! query null semantics. Combinations the planner correctly declines are
//! still checked (plan-first equals enumeration trivially there) and the
//! pinned-refusal tests assert the planner *refuses* the fast path where
//! soundness demands it (existential ICs, existential query variables,
//! disjunctive queries).

use cqa::constraints::{builders, graph, v, Constraint, Ic, IcSet};
use cqa::core::query::AnswerSemantics;
use cqa::core::{
    consistent_answers, consistent_answers_enumerated, consistent_answers_via_program, plan_query,
    ConjunctiveQuery, PlanRoute, ProgramStyle, Query, QueryNullSemantics, RepairConfig,
};
use cqa::prelude::*;
use cqa::relational::testing::XorShift;
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

/// The PR-4 pool: RIC, UIC, single-column FD, composite-determinant FD,
/// NNC and a denial.
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
    for _ in 0..rng.below(4) {
        d.insert_named("R", [value(rng), value(rng)]).unwrap();
    }
    for _ in 0..rng.below(3) {
        d.insert_named("T", [value(rng), value(rng), value(rng)])
            .unwrap();
    }
    d
}

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

/// Quantifier-free queries touching every pool relation: plain scans, a
/// builtin, negation against a constrained relation, a self-join-shaped
/// negation, a ground boolean sentence, and one query per index-probe
/// path of the evaluator.
fn query_pool(sc: &Arc<Schema>) -> Vec<Query> {
    let qv = v;
    let qc = |val: Value| c(val);
    vec![
        ConjunctiveQuery::builder(sc, "q_r", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_p", ["x"])
            .atom("P", [qv("x")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_t", ["x", "y", "z"])
            .atom("T", [qv("x"), qv("y"), qv("z")])
            .cmp(qv("y"), CmpOp::Neq, qc(s("c1")))
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_neg_p", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .not_atom("P", [qv("x")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_neg_r", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .not_atom("R", [qv("y"), qv("x")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_bool", Vec::<String>::new())
            .atom("R", [qc(s("c0")), qc(s("c1"))])
            .finish()
            .unwrap()
            .into(),
        // Index probes: a constant among variables (first and second
        // column), a null constant, a composite probe, and a join whose
        // inner atom is probed once per outer binding.
        ConjunctiveQuery::builder(sc, "q_key", ["y"])
            .atom("R", [qc(s("c0")), qv("y")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_val", ["x"])
            .atom("R", [qv("x"), qc(s("c1"))])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_null", ["x"])
            .atom("R", [qv("x"), qc(Value::Null)])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_cols", ["w"])
            .atom("T", [qc(s("c0")), qc(s("c1")), qv("w")])
            .finish()
            .unwrap()
            .into(),
        ConjunctiveQuery::builder(sc, "q_join", ["x", "y", "u", "w"])
            .atom("R", [qv("x"), qv("y")])
            .atom("T", [qv("y"), qv("u"), qv("w")])
            .finish()
            .unwrap()
            .into(),
    ]
}

#[test]
fn planner_equals_enumeration_and_program_on_the_pool() {
    let sc = schema();
    let mut rng = XorShift::new(901);
    let queries = query_pool(&sc);
    let config = RepairConfig::default();
    let mut routes = (0usize, 0usize, 0usize); // (fo, chase, fallback)
    for round in 0..48 {
        let d = instance(&mut rng, &sc);
        let ics = acyclic_subset(&mut rng, &sc);
        for (qi, q) in queries.iter().enumerate() {
            let route = plan_query(&ics, q, &config).route;
            match route {
                PlanRoute::FoRewrite => routes.0 += 1,
                PlanRoute::Chase => routes.1 += 1,
                PlanRoute::Enumerate => routes.2 += 1,
            }
            for semantics in [
                AnswerSemantics::IncludeNullAnswers,
                AnswerSemantics::ExcludeNullAnswers,
            ] {
                for qsem in [
                    QueryNullSemantics::NullAsValue,
                    QueryNullSemantics::SqlThreeValued,
                ] {
                    let planned = consistent_answers(&d, &ics, q, config, semantics, qsem).unwrap();
                    let enumerated =
                        consistent_answers_enumerated(&d, &ics, q, config, semantics, qsem)
                            .unwrap();
                    assert_eq!(
                        planned, enumerated,
                        "round {round}, query {qi}, {route:?}, {semantics:?}, {qsem:?}"
                    );
                    // The program route evaluates queries with null as a
                    // value; compare on that semantics only.
                    if qsem == QueryNullSemantics::NullAsValue {
                        let via_program = consistent_answers_via_program(
                            &d,
                            &ics,
                            q,
                            ProgramStyle::Corrected,
                            semantics,
                        )
                        .unwrap();
                        assert_eq!(
                            planned, via_program,
                            "program route: round {round}, query {qi}, {route:?}, {semantics:?}"
                        );
                    }
                }
            }
        }
    }
    // The sweep must actually exercise both fast paths — a planner that
    // declined everything would pass the equalities vacuously.
    assert!(
        routes.0 >= 10,
        "FO-rewrite dispatched only {} times",
        routes.0
    );
    assert!(routes.1 >= 10, "chase dispatched only {} times", routes.1);
    assert!(
        routes.2 >= 10,
        "fallback dispatched only {} times",
        routes.2
    );
}

#[test]
fn pinned_refusals() {
    let sc = schema();
    let config = RepairConfig::default();
    let fd_only: IcSet = IcSet::new([Constraint::from(
        builders::functional_dependency(&sc, "R", &[0], 1).unwrap(),
    )]);
    let with_ric: IcSet = IcSet::new([
        Constraint::from(builders::functional_dependency(&sc, "R", &[0], 1).unwrap()),
        Constraint::from(
            Ic::builder(&sc, "ric")
                .body_atom("P", [v("x")])
                .head_atom("R", [v("x"), v("y")])
                .finish()
                .unwrap(),
        ),
    ]);
    let qf: Query = ConjunctiveQuery::builder(&sc, "q", ["x", "y"])
        .atom("R", [v("x"), v("y")])
        .finish()
        .unwrap()
        .into();
    let existential: Query = ConjunctiveQuery::builder(&sc, "e", ["x"])
        .atom("R", [v("x"), v("y")])
        .finish()
        .unwrap()
        .into();
    let union = Query::union(vec![
        ConjunctiveQuery::builder(&sc, "u1", ["x"])
            .atom("R", [v("x"), c(s("c0"))])
            .finish()
            .unwrap(),
        ConjunctiveQuery::builder(&sc, "u2", ["x"])
            .atom("R", [v("x"), c(s("c1"))])
            .finish()
            .unwrap(),
    ])
    .unwrap();

    // Dispatchable baseline.
    assert_eq!(
        plan_query(&fd_only, &qf, &config).route,
        PlanRoute::FoRewrite
    );
    // Existential ICs (a RIC admits insertion repairs) must refuse.
    assert_eq!(
        plan_query(&with_ric, &qf, &config).route,
        PlanRoute::Enumerate
    );
    // Existential query variables must refuse.
    assert_eq!(
        plan_query(&fd_only, &existential, &config).route,
        PlanRoute::Enumerate
    );
    // Disjunctive (union) queries must refuse.
    assert_eq!(
        plan_query(&fd_only, &union, &config).route,
        PlanRoute::Enumerate
    );

    // And the refusals still answer correctly through the fallback.
    let mut d = Instance::empty(sc.clone());
    d.insert_named("R", [s("c0"), s("c0")]).unwrap();
    d.insert_named("R", [s("c0"), s("c1")]).unwrap();
    for q in [&existential, &union] {
        let planned = consistent_answers(
            &d,
            &fd_only,
            q,
            config,
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        let enumerated = consistent_answers_enumerated(
            &d,
            &fd_only,
            q,
            config,
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(planned, enumerated);
    }
    // The union's consistent answer needs cross-disjunct compensation —
    // the exact case a per-disjunct fast path would get wrong.
    let union_answers = consistent_answers_enumerated(
        &d,
        &fd_only,
        &union,
        config,
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    assert_eq!(
        union_answers.tuples,
        std::collections::BTreeSet::from([Tuple::new(vec![s("c0")])])
    );
}

#[test]
fn facade_surfaces_planner_routes() {
    let mut db = Database::from_script(
        "CREATE TABLE r (k TEXT PRIMARY KEY, v TEXT);
         INSERT INTO r VALUES ('k1', 'a');
         INSERT INTO r VALUES ('k2', 'a');
         INSERT INTO r VALUES ('k2', 'b');",
    )
    .unwrap();
    let before = db.planner_stats();
    assert_eq!(before.fo_rewrite, 0);
    // A key FD + quantifier-free query: planned to the FO-rewrite route.
    let plan = db.query_plan("q(k, v) :- r(k, v).").unwrap();
    assert_eq!(plan.route, cqa::core::PlanRoute::FoRewrite);
    assert!(plan.declined.is_empty());
    let answers = db.consistent_answers("q(k, v) :- r(k, v).").unwrap();
    assert_eq!(
        answers,
        std::collections::BTreeSet::from([Tuple::new(vec![s("k1"), s("a")])])
    );
    let after = db.planner_stats();
    assert_eq!(after.fo_rewrite, before.fo_rewrite + 1);
    assert_eq!(after.last_route, Some(cqa::core::PlanRoute::FoRewrite));
    // An existential query falls back — and says why.
    let plan = db.query_plan("e(k) :- r(k, v).").unwrap();
    assert_eq!(plan.route, cqa::core::PlanRoute::Enumerate);
    assert_eq!(
        plan.declined,
        vec![cqa::core::DeclineReason::ExistentialQueryVars]
    );
    let _ = db.consistent_answers("e(k) :- r(k, v).").unwrap();
    assert_eq!(db.planner_stats().fallbacks, after.fallbacks + 1);
    // Keep the borrow checker honest about mutability usage.
    db.insert("r", Tuple::new(vec![s("k3"), s("c")])).unwrap();
    let grown = db.consistent_answers("q(k, v) :- r(k, v).").unwrap();
    assert!(grown.contains(&Tuple::new(vec![s("k3"), s("c")])));
}
