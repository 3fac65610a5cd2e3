//! End-to-end reproduction of every worked example in Bravo & Bertossi,
//! *Semantically Correct Query Answers in the Presence of Null Values*
//! (EDBT 2006). One test per example (examples that share a setup are
//! grouped), asserting the exact artefacts the paper states: relevant
//! attribute sets, consistency verdicts, repair sets, stable models,
//! graph shapes, HCF conditions.

use cqa::constraints::alt::{satisfies_alt, AltSemantics};
use cqa::constraints::classify::{classify, IcClass};
use cqa::constraints::{
    builders, c, graph, insertion_allowed, is_consistent, satisfies_via_projection, v,
};
use cqa::core::classic;
use cqa::prelude::*;
use cqa::relational::display::instance_set;
use std::collections::BTreeSet;
use std::sync::Arc;

fn inst(sc: &Arc<Schema>, rows: &[(&str, Vec<Value>)]) -> Instance {
    let mut d = Instance::empty(sc.clone());
    for (rel, vals) in rows {
        d.insert_named(rel, Tuple::new(vals.clone())).unwrap();
    }
    d
}

fn sets(repairs: &[Instance]) -> BTreeSet<String> {
    repairs.iter().map(instance_set).collect()
}

fn expect(items: &[&str]) -> BTreeSet<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Example 1: the three syntactic classes build and classify.
#[test]
fn example01_constraint_classes() {
    let sc = Schema::builder()
        .relation("P", ["a", "b"])
        .relation("R", ["x", "y", "z"])
        .relation("S", ["s"])
        .relation("R2", ["u", "v"])
        .finish()
        .unwrap();
    // (a) universal: P(x,y) ∧ R(y,z,w) → S(x) ∨ z ≠ 2 ∨ w ≤ y
    let a = Ic::builder(&sc, "a")
        .body_atom("P", [v("x"), v("y")])
        .body_atom("R", [v("y"), v("z"), v("w")])
        .head_atom("S", [v("x")])
        .builtin(v("z"), CmpOp::Neq, c(2))
        .builtin(v("w"), CmpOp::Leq, v("y"))
        .finish()
        .unwrap();
    assert_eq!(classify(&a), IcClass::Universal);
    // (b) referential: P(x,y) → ∃z R(x,y,z)
    let b = Ic::builder(&sc, "b")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("R", [v("x"), v("y"), v("z")])
        .finish()
        .unwrap();
    assert_eq!(classify(&b), IcClass::Referential);
    // (c) disjunctive existential: S(x) → ∃yz (R2(x,y) ∨ R(x,y,z))
    let cc = Ic::builder(&sc, "c")
        .body_atom("S", [v("x")])
        .head_atom("R2", [v("x"), v("y")])
        .head_atom("R", [v("x"), v("y2"), v("z")])
        .finish()
        .unwrap();
    assert_eq!(classify(&cc), IcClass::GeneralExistential);
}

/// Examples 2 and 3: dependency graph, contraction, RIC-acyclicity.
#[test]
fn example02_03_dependency_graphs() {
    let sc = Schema::builder()
        .relation("S", ["s"])
        .relation("Q", ["q"])
        .relation("R", ["r"])
        .relation("T", ["x", "y"])
        .finish()
        .unwrap();
    let ic1 = Ic::builder(&sc, "ic1")
        .body_atom("S", [v("x")])
        .head_atom("Q", [v("x")])
        .finish()
        .unwrap();
    let ic2 = Ic::builder(&sc, "ic2")
        .body_atom("Q", [v("x")])
        .head_atom("R", [v("x")])
        .finish()
        .unwrap();
    let ic3 = Ic::builder(&sc, "ic3")
        .body_atom("Q", [v("x")])
        .head_atom("T", [v("x"), v("y")])
        .finish()
        .unwrap();
    let mut ics = IcSet::new([
        Constraint::from(ic1),
        Constraint::from(ic2),
        Constraint::from(ic3),
    ]);
    let g = graph::dependency_graph(&ics);
    assert_eq!(g.vertices.len(), 4);
    assert_eq!(g.edges.len(), 3);
    let gc = graph::contracted_dependency_graph(&ics);
    assert_eq!(gc.components.len(), 2); // {S,Q,R} and {T}
    assert!(graph::is_ric_acyclic(&ics));

    // Example 3's extension: T(x,y) → R(y) merges everything; cyclic.
    let ic4 = Ic::builder(&sc, "ic4")
        .body_atom("T", [v("x"), v("y")])
        .head_atom("R", [v("y")])
        .finish()
        .unwrap();
    ics.push(ic4);
    let gc2 = graph::contracted_dependency_graph(&ics);
    assert_eq!(gc2.components.len(), 1);
    assert!(!graph::is_ric_acyclic(&ics));
}

/// Example 4: the four-way semantics comparison on D = {P(a,b,null)}.
#[test]
fn example04_semantics_matrix() {
    let sc = Schema::builder()
        .relation("P", ["a", "b", "c"])
        .relation("R", ["x", "y"])
        .finish()
        .unwrap();
    let psi1 = Ic::builder(&sc, "psi1")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("y"), v("z")])
        .finish()
        .unwrap();
    let psi2 = Ic::builder(&sc, "psi2")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("x"), v("y")])
        .finish()
        .unwrap();
    let sc = Arc::new(sc);
    let d = inst(&sc, &[("P", vec![s("a"), s("b"), null()])]);
    // ψ1 verdicts: (a) BB04 ✓, (b) simple ✓, (c) partial ✗, (d) full ✗.
    assert!(satisfies_alt(&d, &psi1, AltSemantics::Bb04));
    assert!(satisfies_alt(&d, &psi1, AltSemantics::SimpleMatch));
    assert!(!satisfies_alt(&d, &psi1, AltSemantics::PartialMatch));
    assert!(!satisfies_alt(&d, &psi1, AltSemantics::FullMatch));
    assert!(satisfies_via_projection(&d, &psi1)); // |=_N agrees with simple
                                                  // ψ2: only BB04 accepts (the null is not in a relevant attribute).
    assert!(satisfies_alt(&d, &psi2, AltSemantics::Bb04));
    assert!(!satisfies_alt(&d, &psi2, AltSemantics::SimpleMatch));
    assert!(!satisfies_via_projection(&d, &psi2));
}

/// Example 5: the Course/Exp foreign key under simple match.
#[test]
fn example05_course_exp_foreign_key() {
    let sc = Schema::builder()
        .relation("Course", ["Code", "ID", "Term"])
        .relation("Exp", ["ID", "Code", "Times"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("Course", vec![s("CS27"), s("21"), s("W04")]),
            ("Course", vec![s("CS18"), s("34"), null()]),
            ("Course", vec![s("CS50"), null(), s("W05")]),
            ("Exp", vec![s("21"), s("CS27"), s("3")]),
            ("Exp", vec![s("34"), s("CS18"), null()]),
            ("Exp", vec![s("45"), s("CS32"), s("2")]),
        ],
    );
    let fk = builders::foreign_key(&sc, "Course", &[1, 0], "Exp", &[0, 1]).unwrap();
    let ics = IcSet::new([Constraint::from(fk.clone())]);
    // DB2 accepts this database (nulls in Term/Times are irrelevant;
    // Course(CS50, null, W05) has a null referencing attribute).
    assert!(is_consistent(&d, &ics));
    // Inserting (CS41, 18, null) is rejected: both referencing attributes
    // non-null, no matching Exp row.
    assert!(!insertion_allowed(
        &d,
        &ics,
        "Course",
        [s("CS41"), s("18"), null()]
    ));
    // Partial and full match would NOT accept the original database:
    assert!(!satisfies_alt(&d, &fk, AltSemantics::PartialMatch));
    assert!(!satisfies_alt(&d, &fk, AltSemantics::FullMatch));
}

/// Example 6: the salary check constraint.
#[test]
fn example06_salary_check() {
    let sc = Schema::builder()
        .relation("Emp", ["ID", "Name", "Salary"])
        .finish()
        .unwrap()
        .into_shared();
    let chk = builders::check_column(&sc, "Emp", 2, CmpOp::Gt, 100).unwrap();
    let ics = IcSet::new([Constraint::from(chk)]);
    let d = inst(
        &sc,
        &[
            ("Emp", vec![i(32), null(), i(1000)]),
            ("Emp", vec![i(41), s("Paul"), null()]),
        ],
    );
    assert!(is_consistent(&d, &ics));
    assert!(!insertion_allowed(&d, &ics, "Emp", [i(32), null(), i(50)]));
}

/// Example 7: set semantics — duplicate rows collapse, and the FD
/// encoding of a key is satisfied by a single (collapsed) row.
#[test]
fn example07_bag_vs_set() {
    let sc = Schema::builder()
        .relation("P", ["A", "B"])
        .finish()
        .unwrap()
        .into_shared();
    let mut d = Instance::empty(sc.clone());
    assert!(d.insert_named("P", [s("a"), s("b")]).unwrap());
    assert!(!d.insert_named("P", [s("a"), s("b")]).unwrap()); // collapses
    assert_eq!(d.len(), 1);
    let fd = builders::functional_dependency(&sc, "P", &[0], 1).unwrap();
    assert!(is_consistent(&d, &IcSet::new([Constraint::from(fd)])));
}

/// Example 8: the multi-row age check with a null age.
#[test]
fn example08_person_age_check() {
    let sc = Schema::builder()
        .relation("Person", ["Name", "Dad", "Mom", "Age"])
        .finish()
        .unwrap()
        .into_shared();
    let chk = Ic::builder(&sc, "age")
        .body_atom("Person", [v("x"), v("y"), v("z"), v("w")])
        .body_atom("Person", [v("z"), v("s"), v("t"), v("u")])
        .builtin(v("u"), CmpOp::Gt, v("w"))
        .finish()
        .unwrap();
    // relevant attrs: Name, Mom, Age (the paper's statement)
    assert_eq!(
        chk.relevant().display(&sc),
        "{Person[1], Person[3], Person[4]}"
    );
    let ics = IcSet::new([Constraint::from(chk)]);
    let d = inst(
        &sc,
        &[
            ("Person", vec![s("Lee"), s("Rod"), s("Mary"), i(27)]),
            ("Person", vec![s("Rod"), s("Joe"), s("Tess"), i(55)]),
            ("Person", vec![s("Mary"), s("Adam"), s("Ann"), null()]),
        ],
    );
    assert!(is_consistent(&d, &ics));
}

/// Example 9: nulls in referenced attributes are not witnesses.
#[test]
fn example09_referenced_null_no_witness() {
    let sc = Schema::builder()
        .relation("Course", ["Code", "Term", "ID"])
        .relation("Employee", ["Term", "ID"])
        .finish()
        .unwrap()
        .into_shared();
    let uic = Ic::builder(&sc, "ref")
        .body_atom("Course", [v("x"), v("y"), v("z")])
        .head_atom("Employee", [v("y"), v("z")])
        .finish()
        .unwrap();
    let d = inst(
        &sc,
        &[
            ("Course", vec![s("CS18"), s("W04"), i(34)]),
            ("Employee", vec![s("W04"), null()]),
        ],
    );
    let ics = IcSet::new([Constraint::from(uic.clone())]);
    assert!(!is_consistent(&d, &ics));
    assert!(!satisfies_alt(&d, &uic, AltSemantics::LeveneLoizou));
}

/// Example 10: relevant attributes and projections of ψ and γ.
#[test]
fn example10_relevant_attributes() {
    let sc = Schema::builder()
        .relation("P", ["A", "B", "C"])
        .relation("R", ["A", "B"])
        .finish()
        .unwrap();
    let psi = Ic::builder(&sc, "psi")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("x"), v("y")])
        .finish()
        .unwrap();
    assert_eq!(psi.relevant().display(&sc), "{P[1], P[2], R[1], R[2]}");
    let gamma = Ic::builder(&sc, "gamma")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .body_atom("R", [v("z"), v("w")])
        .head_atom("R", [v("x"), v("vv")])
        .builtin(v("w"), CmpOp::Gt, c(3))
        .finish()
        .unwrap();
    assert_eq!(gamma.relevant().display(&sc), "{P[1], P[3], R[1], R[2]}");
    // And D^A(ψ) projects P onto its first two columns:
    let sc = Arc::new(sc);
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("b"), s("a")]),
            ("P", vec![s("b"), s("c"), s("a")]),
        ],
    );
    let p = sc.rel_id("P").unwrap();
    let projected = psi.relevant().project_relation(&d, p);
    assert_eq!(projected.len(), 2);
    assert!(projected.contains(&Tuple::new(vec![s("a"), s("b")])));
}

/// Example 11: the consistent database with strategic nulls; adding
/// P(f, d, null) breaks constraint (a).
#[test]
fn example11_consistency_and_breaking_insert() {
    let sc = Schema::builder()
        .relation("P", ["A", "B", "C"])
        .relation("R", ["D", "E"])
        .relation("T", ["F"])
        .finish()
        .unwrap()
        .into_shared();
    let a = Ic::builder(&sc, "a")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("x"), v("y")])
        .finish()
        .unwrap();
    let b = Ic::builder(&sc, "b")
        .body_atom("T", [v("x")])
        .head_atom("P", [v("x"), v("y"), v("z")])
        .finish()
        .unwrap();
    let ics = IcSet::new([Constraint::from(a), Constraint::from(b)]);
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("d"), s("e")]),
            ("P", vec![s("b"), null(), s("g")]),
            ("R", vec![s("a"), s("d")]),
            ("T", vec![s("b")]),
        ],
    );
    assert!(is_consistent(&d, &ics));
    assert!(!insertion_allowed(&d, &ics, "P", [s("f"), s("d"), null()]));
}

/// Example 12: joins through null (null as an ordinary constant in ψ^N).
#[test]
fn example12_null_joins() {
    let sc = Schema::builder()
        .relation("P1", ["A", "B", "C"])
        .relation("P2", ["D", "E"])
        .relation("Q", ["F", "G", "H"])
        .finish()
        .unwrap()
        .into_shared();
    let psi = Ic::builder(&sc, "psi")
        .body_atom("P1", [v("x"), v("y"), v("w")])
        .body_atom("P2", [v("y"), v("z")])
        .head_atom("Q", [v("x"), v("z"), v("u")])
        .finish()
        .unwrap();
    let d = inst(
        &sc,
        &[
            ("P1", vec![s("a"), s("b"), s("c")]),
            ("P1", vec![s("d"), null(), s("c")]),
            ("P1", vec![s("b"), s("e"), null()]),
            ("P1", vec![null(), s("b"), s("b")]),
            ("P2", vec![s("b"), s("a")]),
            ("P2", vec![s("e"), s("c")]),
            ("P2", vec![s("d"), null()]),
            ("P2", vec![null(), s("b")]),
            ("Q", vec![s("a"), s("a"), s("c")]),
            ("Q", vec![s("b"), null(), s("c")]),
            ("Q", vec![s("b"), s("c"), s("d")]),
            ("Q", vec![null(), s("c"), s("a")]),
        ],
    );
    let ics = IcSet::new([Constraint::from(psi.clone())]);
    assert!(is_consistent(&d, &ics));
    assert!(satisfies_via_projection(&d, &psi));
}

/// Example 13: a repeated existential variable satisfied by a null witness.
#[test]
fn example13_repeated_existential_null_witness() {
    let sc = Schema::builder()
        .relation("P", ["A", "B"])
        .relation("Q", ["X", "Y", "Z"])
        .finish()
        .unwrap()
        .into_shared();
    let psi = Ic::builder(&sc, "psi")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("Q", [v("x"), v("z"), v("z")])
        .finish()
        .unwrap();
    assert_eq!(psi.relevant().display(&sc), "{P[1], Q[1], Q[2], Q[3]}");
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("b")]),
            ("P", vec![null(), s("c")]),
            ("Q", vec![s("a"), null(), null()]),
        ],
    );
    assert!(is_consistent(&d, &IcSet::new([Constraint::from(psi)])));
}

/// Examples 14 and 15: classic repairs (domain-parameterised) vs the two
/// null-based repairs.
#[test]
fn example14_15_classic_vs_null_repairs() {
    let sc = Schema::builder()
        .relation("Course", ["ID", "Code"])
        .relation("Student", ["ID", "Name"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("Course", vec![s("21"), s("C15")]),
            ("Course", vec![s("34"), s("C18")]),
            ("Student", vec![s("21"), s("Ann")]),
            ("Student", vec![s("45"), s("Paul")]),
        ],
    );
    let ric = builders::foreign_key(&sc, "Course", &[0], "Student", &[0]).unwrap();
    let ics = IcSet::new([Constraint::from(ric)]);
    // Example 14: classic repairs — one deletion plus one per domain value.
    for k in [2usize, 5] {
        let domain: Vec<Value> = (0..k).map(|j| s(&format!("mu{j}"))).collect();
        let classic_reps = classic::repairs_with_domain(&d, &ics, &domain, 1 << 20).unwrap();
        assert_eq!(classic_reps.len(), k + 1);
    }
    // Example 15: exactly two null-based repairs.
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(
        sets(&reps),
        expect(&[
            "{Course(21, C15), Student(21, Ann), Student(45, Paul)}",
            "{Course(21, C15), Course(34, C18), Student(21, Ann), Student(34, null), Student(45, Paul)}",
        ])
    );
}

/// Example 16: two repairs, shown pairwise ≤_D-incomparable.
#[test]
fn example16_two_repairs() {
    let sc = Schema::builder()
        .relation("Q", ["x", "y"])
        .relation("P", ["a", "b"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[("Q", vec![s("a"), s("b")]), ("P", vec![s("a"), s("c")])],
    );
    let psi1 = Ic::builder(&sc, "psi1")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("Q", [v("x"), v("z")])
        .finish()
        .unwrap();
    let psi2 = Ic::builder(&sc, "psi2")
        .body_atom("Q", [v("x"), v("y")])
        .builtin(v("y"), CmpOp::Neq, c(s("b")))
        .finish()
        .unwrap();
    let ics = IcSet::new([Constraint::from(psi1), Constraint::from(psi2)]);
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(sets(&reps), expect(&["{}", "{Q(a, null), P(a, c)}"]));
    assert!(!cqa::core::leq_d(&d, &reps[0], &reps[1]).unwrap());
    assert!(!cqa::core::leq_d(&d, &reps[1], &reps[0]).unwrap());
}

/// Example 17: R(b, null) is the insertion repair; R(b, d) is dominated.
#[test]
fn example17_null_beats_value() {
    let sc = Schema::builder()
        .relation("P", ["a", "b"])
        .relation("R", ["x", "y"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), null()]),
            ("P", vec![s("b"), s("c")]),
            ("R", vec![s("a"), s("b")]),
        ],
    );
    let ric = Ic::builder(&sc, "ric")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("R", [v("x"), v("z")])
        .finish()
        .unwrap();
    let ics = IcSet::new([Constraint::from(ric)]);
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(
        sets(&reps),
        expect(&[
            "{P(a, null), P(b, c), R(a, b), R(b, null)}",
            "{P(a, null), R(a, b)}",
        ])
    );
    // D3 (with R(b,d)) is consistent but strictly dominated:
    let d3 = d.with_atom(&cqa::relational::DatabaseAtom::new(
        sc.rel_id("R").unwrap(),
        Tuple::new(vec![s("b"), s("d")]),
    ));
    assert!(is_consistent(&d3, &ics));
    assert!(cqa::core::lt_d(&d, &reps[0], &d3).unwrap());
}

/// Example 18: the RIC-cyclic set with four repairs.
#[test]
fn example18_cyclic_four_repairs() {
    let sc = Schema::builder()
        .relation("P", ["a", "b"])
        .relation("T", ["t"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("b")]),
            ("P", vec![null(), s("a")]),
            ("T", vec![s("c")]),
        ],
    );
    let uic = Ic::builder(&sc, "uic")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("T", [v("x")])
        .finish()
        .unwrap();
    let ric = Ic::builder(&sc, "ric")
        .body_atom("T", [v("x")])
        .head_atom("P", [v("y"), v("x")])
        .finish()
        .unwrap();
    let ics = IcSet::new([Constraint::from(uic), Constraint::from(ric)]);
    assert!(!graph::is_ric_acyclic(&ics)); // cyclic — CQA still decidable
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(
        sets(&reps),
        expect(&[
            "{P(null, a), P(null, c), P(a, b), T(a), T(c)}",
            "{P(null, a), P(a, b), T(a)}",
            "{P(null, a), P(null, c), T(c)}",
            "{P(null, a)}",
        ])
    );
}

/// Example 19: key + foreign key + NOT NULL; four repairs.
#[test]
fn example19_four_repairs() {
    let sc = Schema::builder()
        .relation("R", ["X", "Y"])
        .relation("S", ["U", "V"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("R", vec![s("a"), s("b")]),
            ("R", vec![s("a"), s("c")]),
            ("S", vec![s("e"), s("f")]),
            ("S", vec![null(), s("a")]),
        ],
    );
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
    ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
    ics.push(builders::not_null(&sc, "R", 0).unwrap());
    assert!(ics.is_non_conflicting());
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert_eq!(
        sets(&reps),
        expect(&[
            "{R(a, b), R(f, null), S(null, a), S(e, f)}",
            "{R(a, c), R(f, null), S(null, a), S(e, f)}",
            "{R(a, b), S(null, a)}",
            "{R(a, c), S(null, a)}",
        ])
    );
}

/// Example 20: a conflicting NNC; Rep_d prefers the deletion repair.
#[test]
fn example20_conflicting_nnc_repd() {
    let sc = Schema::builder()
        .relation("P", ["a"])
        .relation("Q", ["x", "y"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a")]),
            ("P", vec![s("b")]),
            ("Q", vec![s("b"), s("c")]),
        ],
    );
    let ric = Ic::builder(&sc, "ric")
        .body_atom("P", [v("x")])
        .head_atom("Q", [v("x"), v("y")])
        .finish()
        .unwrap();
    let mut ics = IcSet::default();
    ics.push(ric);
    ics.push(builders::not_null(&sc, "Q", 1).unwrap());
    assert_eq!(ics.conflicting_pairs(), vec![(0, 1)]);
    // Null-based semantics refuses:
    assert!(repairs(&d, &ics, RepairConfig::default()).is_err());
    // Rep_d gives the deletion repair only:
    let reps = cqa::core::repairs(
        &d,
        &ics,
        RepairConfig {
            semantics: RepairSemantics::DeletionPreferring,
            ..RepairConfig::default()
        },
    )
    .unwrap();
    assert_eq!(sets(&reps), expect(&["{P(b), Q(b, c)}"]));
    // Classic semantics over an explicit domain recovers the µ-family:
    let domain: Vec<Value> = vec![s("m1"), s("m2"), s("m3")];
    let classic_reps = classic::repairs_with_domain(&d, &ics, &domain, 1 << 20).unwrap();
    assert_eq!(classic_reps.len(), 4); // deletion + 3 µ-insertions
}

/// Examples 19/21/23: the repair program, its four stable models, and the
/// Theorem-4 correspondence (engine == program).
#[test]
fn example21_23_repair_program_stable_models() {
    let sc = Schema::builder()
        .relation("R", ["X", "Y"])
        .relation("S", ["U", "V"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("R", vec![s("a"), s("b")]),
            ("R", vec![s("a"), s("c")]),
            ("S", vec![s("e"), s("f")]),
            ("S", vec![null(), s("a")]),
        ],
    );
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
    ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
    ics.push(builders::not_null(&sc, "R", 0).unwrap());
    for style in [ProgramStyle::PaperExact, ProgramStyle::Corrected] {
        let program = cqa::core::repair_program(&d, &ics, style).unwrap();
        let gp = cqa::asp::ground(&program);
        let models = cqa::asp::stable_models(&gp);
        assert_eq!(models.len(), 4, "{style:?}");
        let via_program = cqa::core::repairs_via_program(&d, &ics, style, false).unwrap();
        let via_engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
        assert_eq!(via_program, via_engine, "{style:?}");
    }
}

/// Example 22: the Q′/Q″ partition expansion — 2² = 4 rules for a
/// two-atom disjunctive head.
#[test]
fn example22_partition_expansion() {
    let sc = Schema::builder()
        .relation("P", ["A", "B"])
        .relation("R", ["X"])
        .relation("S", ["Y"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[("P", vec![s("a"), s("b")]), ("P", vec![s("c"), null()])],
    );
    let uic = Ic::builder(&sc, "uic")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("R", [v("x")])
        .head_atom("S", [v("y")])
        .finish()
        .unwrap();
    let mut ics = IcSet::default();
    ics.push(uic);
    ics.push(builders::not_null(&sc, "P", 1).unwrap());
    let program = cqa::core::repair_program(&d, &ics, ProgramStyle::PaperExact).unwrap();
    let text = program.to_string();
    let partition_rules = text
        .lines()
        .filter(|l| l.contains("P_fa(x") && l.contains("R_ta("))
        .count();
    assert_eq!(partition_rules, 4);
}

/// Example 24 + Theorem 5: bilateral predicates and the HCF condition;
/// verified against the ground program.
#[test]
fn example24_bilateral_and_hcf() {
    let sc = Schema::builder()
        .relation("T", ["t"])
        .relation("R", ["a", "b"])
        .relation("S", ["u", "v"])
        .finish()
        .unwrap()
        .into_shared();
    let ric = Ic::builder(&sc, "ric")
        .body_atom("T", [v("x")])
        .head_atom("R", [v("x"), v("y")])
        .finish()
        .unwrap();
    let uic = Ic::builder(&sc, "uic")
        .body_atom("S", [v("x"), v("y")])
        .head_atom("T", [v("x")])
        .finish()
        .unwrap();
    let ics = IcSet::new([Constraint::from(ric), Constraint::from(uic)]);
    let bilateral = graph::bilateral_predicates(&ics);
    assert_eq!(bilateral.len(), 1);
    assert!(bilateral.contains(&sc.rel_id("T").unwrap()));
    assert!(graph::theorem5_hcf_condition(&ics));
    // The ground repair program is indeed HCF, and shifting preserves its
    // stable models (Section 6).
    let d = inst(&sc, &[("S", vec![s("1"), s("2")]), ("T", vec![s("9")])]);
    let program = cqa::core::repair_program(&d, &ics, ProgramStyle::Corrected).unwrap();
    let gp = cqa::asp::ground(&program);
    assert!(cqa::asp::is_hcf(&gp));
    let shifted = cqa::asp::shift(&gp).unwrap();
    assert!(shifted.is_normal());
    assert_eq!(
        cqa::asp::stable_models(&gp),
        cqa::asp::stable_models(&shifted)
    );
    // Counterexample from the text after Theorem 5: P(x,y) → P(y,x) fails
    // the syntactic condition.
    let sc2 = Schema::builder()
        .relation("P", ["a", "b"])
        .finish()
        .unwrap();
    let sym = Ic::builder(&sc2, "sym")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("P", [v("y"), v("x")])
        .finish()
        .unwrap();
    assert!(!graph::theorem5_hcf_condition(&IcSet::new([
        Constraint::from(sym)
    ])));
}

/// Proposition 1: repairs stay within adom(D) ∪ const(IC) ∪ {null}, and
/// the repair set is finite and non-empty.
#[test]
fn proposition1_active_domain_containment() {
    let sc = Schema::builder()
        .relation("R", ["X", "Y"])
        .relation("S", ["U", "V"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("R", vec![s("a"), s("b")]),
            ("R", vec![s("a"), s("c")]),
            ("S", vec![s("e"), s("f")]),
        ],
    );
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
    ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
    let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
    assert!(!reps.is_empty());
    let mut allowed = d.active_domain();
    allowed.extend(ics.constants());
    allowed.insert(Value::Null);
    for r in &reps {
        for value in r.active_domain() {
            assert!(allowed.contains(&value), "{value} escaped the bound");
        }
    }
}
