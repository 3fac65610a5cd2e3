//! End-to-end consistent query answering scenarios: every query shape the
//! library supports (joins, negation, builtins, unions, boolean), across
//! both CQA engines, under both repair semantics and both query-null
//! semantics.

use cqa::constraints::{builders, v, IcSet};
use cqa::core::query::{AnswerSemantics, QueryNullSemantics};
use cqa::core::{
    consistent_answers, consistent_answers_via_program, ConjunctiveQuery, ProgramStyle, Query,
    RepairConfig, RepairSemantics,
};
use cqa::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A small personnel database with one key conflict and one dangling
/// reference — two independent choice points, four repairs.
fn setup() -> (Arc<Schema>, Instance, IcSet) {
    let sc = Schema::builder()
        .relation("emp", ["id", "dept"])
        .relation("dept", ["code", "head"])
        .finish()
        .unwrap()
        .into_shared();
    let mut d = Instance::empty(sc.clone());
    // key conflict on emp 1
    d.insert_named("emp", [s("1"), s("cs")]).unwrap();
    d.insert_named("emp", [s("1"), s("ee")]).unwrap();
    // clean employee
    d.insert_named("emp", [s("2"), s("cs")]).unwrap();
    // dangling: emp 3 references a department that does not exist
    d.insert_named("emp", [s("3"), s("ghost")]).unwrap();
    d.insert_named("dept", [s("cs"), s("ada")]).unwrap();
    d.insert_named("dept", [s("ee"), s("grace")]).unwrap();
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&sc, "emp", &[0], 1).unwrap());
    ics.push(builders::foreign_key(&sc, "emp", &[1], "dept", &[0]).unwrap());
    (sc, d, ics)
}

fn agree(d: &Instance, ics: &IcSet, q: &Query) -> BTreeSet<Tuple> {
    let direct = consistent_answers(
        d,
        ics,
        q,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    let via_program = consistent_answers_via_program(
        d,
        ics,
        q,
        ProgramStyle::Corrected,
        AnswerSemantics::IncludeNullAnswers,
    )
    .unwrap();
    assert_eq!(direct, via_program, "engines disagree on {q:?}");
    direct.tuples
}

#[test]
fn repair_structure() {
    let (_, d, ics) = setup();
    // 2 (key choice) × 2 (delete emp 3 / insert dept(ghost, null)) = 4.
    let reps = cqa::core::repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(reps.len(), 4);
}

#[test]
fn join_queries() {
    let (sc, d, ics) = setup();
    // employees whose department head is certain
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["e", "h"])
        .atom("emp", [v("e"), v("dd")])
        .atom("dept", [v("dd"), v("h")])
        .finish()
        .unwrap()
        .into();
    let answers = agree(&d, &ics, &q);
    // emp 2 → cs → ada holds in every repair; emp 1's dept flips; emp 3's
    // dept row (ghost, null) has head null — a join partner, but the
    // deletion repair removes emp 3 entirely.
    assert_eq!(
        answers,
        BTreeSet::from([Tuple::new(vec![s("2"), s("ada")])])
    );
}

// negation needs the head var to avoid ranging over emp ids; rewrite:
#[test]
fn negation_queries_safe() {
    let (sc, d, ics) = setup();
    // certain department heads, with a (vacuous) negated-atom guard
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["h"])
        .atom("dept", [v("c"), v("h")])
        .not_atom("emp", [v("c"), v("c")])
        .finish()
        .unwrap()
        .into();
    // `not emp(c, c)` is true for every department (no emp row has
    // id = dept), so this reduces to certain dept heads.
    let answers = agree(&d, &ics, &q);
    assert!(answers.contains(&Tuple::new(vec![s("ada")])));
    assert!(answers.contains(&Tuple::new(vec![s("grace")])));
}

#[test]
fn builtin_queries() {
    let (sc, d, ics) = setup();
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["e"])
        .atom("emp", [v("e"), v("dd")])
        .cmp(v("e"), CmpOp::Gt, cqa::constraints::c(s("1")))
        .finish()
        .unwrap()
        .into();
    let answers = agree(&d, &ics, &q);
    // emp 2 certain; emp 3 uncertain (deleted in half the repairs).
    assert_eq!(answers, BTreeSet::from([Tuple::new(vec![s("2")])]));
}

#[test]
fn union_queries() {
    let (sc, d, ics) = setup();
    let q1 = ConjunctiveQuery::builder(&sc, "q", ["x"])
        .atom("emp", [v("x"), v("dd")])
        .finish()
        .unwrap();
    let q2 = ConjunctiveQuery::builder(&sc, "q", ["x"])
        .atom("dept", [v("x"), v("h")])
        .finish()
        .unwrap();
    let q = Query::union(vec![q1, q2]).unwrap();
    let answers = agree(&d, &ics, &q);
    // emp ids 1, 2 certain (1 keeps one row in every repair);
    // dept codes cs, ee certain; emp 3 and ghost uncertain.
    assert_eq!(
        answers,
        BTreeSet::from([
            Tuple::new(vec![s("1")]),
            Tuple::new(vec![s("2")]),
            Tuple::new(vec![s("cs")]),
            Tuple::new(vec![s("ee")]),
        ])
    );
}

#[test]
fn boolean_queries() {
    let (sc, d, ics) = setup();
    let yes: Query = ConjunctiveQuery::builder(&sc, "b", Vec::<String>::new())
        .atom("emp", [cqa::constraints::c(s("2")), v("dd")])
        .finish()
        .unwrap()
        .into();
    let direct = consistent_answers(
        &d,
        &ics,
        &yes,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    assert!(direct.is_yes());
    let no: Query = ConjunctiveQuery::builder(&sc, "b", Vec::<String>::new())
        .atom("emp", [v("x"), cqa::constraints::c(s("ghost"))])
        .finish()
        .unwrap()
        .into();
    let direct_no = consistent_answers(
        &d,
        &ics,
        &no,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    assert!(!direct_no.is_yes());
}

#[test]
fn null_answer_filtering_and_sql_mode() {
    let (sc, d, ics) = setup();
    // dept rows with any head value — the insertion repair adds
    // dept(ghost, null).
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["c", "h"])
        .atom("dept", [v("c"), v("h")])
        .finish()
        .unwrap()
        .into();
    let with_nulls = consistent_answers(
        &d,
        &ics,
        &q,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    // (ghost, null) is NOT consistent (absent from deletion repairs), so
    // both filters agree here:
    let filtered = consistent_answers(
        &d,
        &ics,
        &q,
        RepairConfig::default(),
        AnswerSemantics::ExcludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    assert_eq!(with_nulls.tuples, filtered.tuples);
    // SQL three-valued mode returns a subset of as-value answers here.
    let sql = consistent_answers(
        &d,
        &ics,
        &q,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::SqlThreeValued,
    )
    .unwrap();
    assert!(sql.tuples.is_subset(&with_nulls.tuples));
}

#[test]
fn repd_cqa_on_conflicting_sets() {
    // Add a NOT NULL on dept.head: conflicts with the FK's existential
    // attribute; CQA must be run under Rep_d.
    let (sc, d, mut ics) = setup();
    ics.push(builders::not_null(&sc, "dept", 1).unwrap());
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["e"])
        .atom("emp", [v("e"), v("dd")])
        .finish()
        .unwrap()
        .into();
    assert!(consistent_answers(
        &d,
        &ics,
        &q,
        RepairConfig::default(),
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue
    )
    .is_err());
    let repd = consistent_answers(
        &d,
        &ics,
        &q,
        RepairConfig {
            semantics: RepairSemantics::DeletionPreferring,
            ..RepairConfig::default()
        },
        AnswerSemantics::IncludeNullAnswers,
        QueryNullSemantics::NullAsValue,
    )
    .unwrap();
    // Under Rep_d emp 3 is always deleted (no dept(ghost,·) insertion is
    // allowed), so only 1 and 2 remain certain.
    assert_eq!(
        repd.tuples,
        BTreeSet::from([Tuple::new(vec![s("1")]), Tuple::new(vec![s("2")])])
    );
}

#[test]
fn monotone_queries_sound_under_repair_count() {
    // Sanity: consistent answers ⊆ plain answers for positive queries.
    let (sc, d, ics) = setup();
    let q: Query = ConjunctiveQuery::builder(&sc, "q", ["e", "dd"])
        .atom("emp", [v("e"), v("dd")])
        .finish()
        .unwrap()
        .into();
    let consistent = agree(&d, &ics, &q);
    let plain = q.eval(&d);
    assert!(consistent.is_subset(&plain));
}
