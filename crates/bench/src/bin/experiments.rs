//! Regenerate every table, figure and worked example of Bravo & Bertossi
//! (EDBT 2006) — the experiment harness behind `EXPERIMENTS.md`.
//!
//! Usage:
//! ```text
//! cargo run -p cqa-bench --bin experiments            # all experiments
//! cargo run -p cqa-bench --bin experiments -- e04 e18 # a selection
//! ```
//!
//! Output is Markdown: one section per experiment, stating the paper's
//! expected artefact and the measured one.

use cqa_constraints::alt::{semantics_matrix, AltSemantics};
use cqa_constraints::classify::classify;
use cqa_constraints::{
    builders, c, graph, insertion_allowed, is_consistent, satisfies_via_projection, v, CmpOp,
    Constraint, Ic, IcSet,
};
use cqa_core::{classic, ProgramStyle, QueryNullSemantics, RepairConfig, RepairSemantics};
use cqa_relational::display::{instance_set, instance_tables};
use cqa_relational::{i, null, s, Instance, Schema, Tuple, Value};
use std::sync::Arc;
use std::time::Instant;

fn inst(sc: &Arc<Schema>, rows: &[(&str, Vec<Value>)]) -> Instance {
    let mut d = Instance::empty(sc.clone());
    for (rel, vals) in rows {
        d.insert_named(rel, Tuple::new(vals.clone())).unwrap();
    }
    d
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "consistent"
    } else {
        "INCONSISTENT"
    }
}

fn check(label: &str, expected: &str, got: impl std::fmt::Display) {
    let got = got.to_string();
    let status = if got == expected {
        "ok"
    } else {
        "** MISMATCH **"
    };
    println!("| {label} | {expected} | {got} | {status} |");
}

fn header(id: &str, title: &str) {
    println!("\n## {id} — {title}\n");
}

fn e01() {
    header("E01", "Example 1: the constraint classes");
    let sc = Schema::builder()
        .relation("P", ["a", "b"])
        .relation("R", ["x", "y", "z"])
        .relation("S", ["s"])
        .relation("R2", ["u", "v"])
        .finish()
        .unwrap();
    let a = Ic::builder(&sc, "a")
        .body_atom("P", [v("x"), v("y")])
        .body_atom("R", [v("y"), v("z"), v("w")])
        .head_atom("S", [v("x")])
        .builtin(v("z"), CmpOp::Neq, c(2))
        .builtin(v("w"), CmpOp::Leq, v("y"))
        .finish()
        .unwrap();
    let b = Ic::builder(&sc, "b")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("R", [v("x"), v("y"), v("z")])
        .finish()
        .unwrap();
    let cc = Ic::builder(&sc, "c")
        .body_atom("S", [v("x")])
        .head_atom("R2", [v("x"), v("y")])
        .head_atom("R", [v("x"), v("y2"), v("z")])
        .finish()
        .unwrap();
    println!("| constraint | paper class | measured | status |");
    println!("|---|---|---|---|");
    check("(a)", "Universal", format!("{:?}", classify(&a)));
    check("(b)", "Referential", format!("{:?}", classify(&b)));
    check("(c)", "GeneralExistential", format!("{:?}", classify(&cc)));
    for ic in [&a, &b, &cc] {
        println!("\n`{}`", ic.display(&sc));
    }
}

fn example2_ics(sc: &Schema) -> IcSet {
    let ic1 = Ic::builder(sc, "ic1")
        .body_atom("S", [v("x")])
        .head_atom("Q", [v("x")])
        .finish()
        .unwrap();
    let ic2 = Ic::builder(sc, "ic2")
        .body_atom("Q", [v("x")])
        .head_atom("R", [v("x")])
        .finish()
        .unwrap();
    let ic3 = Ic::builder(sc, "ic3")
        .body_atom("Q", [v("x")])
        .head_atom("T", [v("x"), v("y")])
        .finish()
        .unwrap();
    IcSet::new([
        Constraint::from(ic1),
        Constraint::from(ic2),
        Constraint::from(ic3),
    ])
}

fn e02() {
    header(
        "E02",
        "Examples 2–3: dependency graphs G(IC), G^C(IC), RIC-acyclicity (the paper's two figures)",
    );
    let sc = Schema::builder()
        .relation("S", ["s"])
        .relation("Q", ["q"])
        .relation("R", ["r"])
        .relation("T", ["x", "y"])
        .finish()
        .unwrap();
    let mut ics = example2_ics(&sc);
    println!("figure 1 — G(IC) in DOT:\n```dot");
    print!("{}", graph::dependency_graph(&ics).to_dot(&sc, &ics));
    println!("```");
    println!("figure 2 — G^C(IC) in DOT:\n```dot");
    print!(
        "{}",
        graph::contracted_dependency_graph(&ics).to_dot(&sc, &ics)
    );
    println!("```");
    println!("| property | paper | measured | status |");
    println!("|---|---|---|---|");
    check(
        "components of G^C",
        "2",
        graph::contracted_dependency_graph(&ics).components.len(),
    );
    check("RIC-acyclic", "true", graph::is_ric_acyclic(&ics));
    let ic4 = Ic::builder(&sc, "ic4")
        .body_atom("T", [v("x"), v("y")])
        .head_atom("R", [v("y")])
        .finish()
        .unwrap();
    ics.push(ic4);
    check(
        "components after adding T(x,y)→R(y)",
        "1",
        graph::contracted_dependency_graph(&ics).components.len(),
    );
    check(
        "RIC-acyclic after adding",
        "false",
        graph::is_ric_acyclic(&ics),
    );
}

fn e03() {
    header(
        "E03",
        "Example 4: the null-semantics comparison matrix on D = {P(a,b,null)}",
    );
    let sc = Schema::builder()
        .relation("P", ["a", "b", "c"])
        .relation("R", ["x", "y"])
        .finish()
        .unwrap();
    let psi1 = Ic::builder(&sc, "psi1: P(x,y,z)->R(y,z)")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("y"), v("z")])
        .finish()
        .unwrap();
    let psi2 = Ic::builder(&sc, "psi2: P(x,y,z)->R(x,y)")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .head_atom("R", [v("x"), v("y")])
        .finish()
        .unwrap();
    let sc = Arc::new(sc);
    let d = inst(&sc, &[("P", vec![s("a"), s("b"), null()])]);
    println!("paper expectation: ψ1 consistent under BB04 and simple match only;");
    println!("ψ2 consistent under BB04 only.\n");
    println!("| constraint | semantics | verdict |");
    println!("|---|---|---|");
    for row in semantics_matrix(&d, &[&psi1, &psi2]) {
        for (label, ok) in &row.verdicts {
            println!("| {} | {} | {} |", row.constraint, label, verdict(*ok));
        }
    }
}

fn e04() {
    header(
        "E04",
        "Example 5: the Course/Exp foreign key under DB2-style simple match",
    );
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
    println!("{}", instance_tables(&d));
    let fk = builders::foreign_key(&sc, "Course", &[1, 0], "Exp", &[0, 1]).unwrap();
    let ics = IcSet::new([Constraint::from(fk.clone())]);
    println!("| check | paper (DB2) | measured | status |");
    println!("|---|---|---|---|");
    check("database accepted", "true", is_consistent(&d, &ics));
    check(
        "insert Course(CS41, 18, null)",
        "false",
        insertion_allowed(&d, &ics, "Course", [s("CS41"), s("18"), null()]),
    );
    check(
        "partial match accepts",
        "false",
        cqa_constraints::alt::satisfies_alt(&d, &fk, AltSemantics::PartialMatch),
    );
    check(
        "full match accepts",
        "false",
        cqa_constraints::alt::satisfies_alt(&d, &fk, AltSemantics::FullMatch),
    );
}

fn e05() {
    header("E05", "Example 6: the salary check constraint");
    let sc = Schema::builder()
        .relation("Emp", ["ID", "Name", "Salary"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[
            ("Emp", vec![i(32), null(), i(1000)]),
            ("Emp", vec![i(41), s("Paul"), null()]),
        ],
    );
    println!("{}", instance_tables(&d));
    let chk = builders::check_column(&sc, "Emp", 2, CmpOp::Gt, 100).unwrap();
    println!(
        "relevant attributes A(ψ) = {} (paper: {{Emp[3]}})",
        chk.relevant().display(&sc)
    );
    let ics = IcSet::new([Constraint::from(chk)]);
    println!("| check | paper (DB2) | measured | status |");
    println!("|---|---|---|---|");
    check("database accepted", "true", is_consistent(&d, &ics));
    check(
        "insert Emp(32, null, 50)",
        "false",
        insertion_allowed(&d, &ics, "Emp", [i(32), null(), i(50)]),
    );
}

fn e06() {
    header("E06", "Example 7: set vs bag semantics");
    let sc = Schema::builder()
        .relation("P", ["A", "B"])
        .finish()
        .unwrap()
        .into_shared();
    let mut d = Instance::empty(sc.clone());
    let first = d.insert_named("P", [s("a"), s("b")]).unwrap();
    let second = d.insert_named("P", [s("a"), s("b")]).unwrap();
    println!("| check | paper | measured | status |");
    println!("|---|---|---|---|");
    check("first insert new", "true", first);
    check("duplicate collapses (set semantics)", "false", second);
    let fd = builders::functional_dependency(&sc, "P", &[0], 1).unwrap();
    check(
        "FD satisfied by the collapsed row",
        "true",
        is_consistent(&d, &IcSet::new([Constraint::from(fd)])),
    );
    println!("\n(the paper notes SQL's bag semantics would keep both rows yet");
    println!("fail a PRIMARY KEY; first-order FDs cannot express that — we");
    println!("follow the paper and work with sets)");
}

fn e07() {
    header("E07", "Example 8: multi-row age check with a null age");
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
    let d = inst(
        &sc,
        &[
            ("Person", vec![s("Lee"), s("Rod"), s("Mary"), i(27)]),
            ("Person", vec![s("Rod"), s("Joe"), s("Tess"), i(55)]),
            ("Person", vec![s("Mary"), s("Adam"), s("Ann"), null()]),
        ],
    );
    println!("{}", instance_tables(&d));
    println!("| check | paper | measured | status |");
    println!("|---|---|---|---|");
    check(
        "relevant attributes",
        "{Person[1], Person[3], Person[4]}",
        chk.relevant().display(&sc),
    );
    check(
        "database consistent",
        "true",
        is_consistent(&d, &IcSet::new([Constraint::from(chk)])),
    );
}

fn e08() {
    header(
        "E08",
        "Example 9: a null in referenced attributes is no witness",
    );
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
    println!("{}", instance_tables(&d));
    println!("| semantics | paper | measured | status |");
    println!("|---|---|---|---|");
    check(
        "|=_N",
        "INCONSISTENT",
        verdict(is_consistent(
            &d,
            &IcSet::new([Constraint::from(uic.clone())]),
        )),
    );
    check(
        "Levene–Loizou",
        "INCONSISTENT",
        verdict(cqa_constraints::alt::satisfies_alt(
            &d,
            &uic,
            AltSemantics::LeveneLoizou,
        )),
    );
}

fn e09() {
    header(
        "E09",
        "Example 10: relevant attributes and the projections D^A",
    );
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
    let gamma = Ic::builder(&sc, "gamma")
        .body_atom("P", [v("x"), v("y"), v("z")])
        .body_atom("R", [v("z"), v("w")])
        .head_atom("R", [v("x"), v("vv")])
        .builtin(v("w"), CmpOp::Gt, c(3))
        .finish()
        .unwrap();
    println!("| constraint | paper A(ψ) | measured | status |");
    println!("|---|---|---|---|");
    check("ψ", "{P[1], P[2], R[1], R[2]}", psi.relevant().display(&sc));
    check(
        "γ",
        "{P[1], P[3], R[1], R[2]}",
        gamma.relevant().display(&sc),
    );
    let sc = Arc::new(sc);
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("b"), s("a")]),
            ("P", vec![s("b"), s("c"), s("a")]),
            ("R", vec![s("a"), i(5)]),
            ("R", vec![s("a"), i(2)]),
        ],
    );
    let p = sc.rel_id("P").unwrap();
    println!("\nP^A(ψ) rows (paper: (a,b), (b,c)):");
    for t in psi.relevant().project_relation(&d, p) {
        println!("  {t}");
    }
    println!("P^A(γ) rows (paper: (a,a), (b,a)):");
    for t in gamma.relevant().project_relation(&d, p) {
        println!("  {t}");
    }
}

fn e10() {
    header("E10", "Examples 11–13: |=_N satisfaction runs");
    // Example 11
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
    let ics = IcSet::new([Constraint::from(a.clone()), Constraint::from(b)]);
    let d = inst(
        &sc,
        &[
            ("P", vec![s("a"), s("d"), s("e")]),
            ("P", vec![s("b"), null(), s("g")]),
            ("R", vec![s("a"), s("d")]),
            ("T", vec![s("b")]),
        ],
    );
    println!("| check | paper | measured | status |");
    println!("|---|---|---|---|");
    check("Example 11 D consistent", "true", is_consistent(&d, &ics));
    check(
        "Example 11 + P(f,d,null) consistent",
        "false",
        insertion_allowed(&d, &ics, "P", [s("f"), s("d"), null()]),
    );
    check(
        "Example 11 projection cross-check",
        "true",
        satisfies_via_projection(&d, &a),
    );
    // Example 13
    let sc13 = Schema::builder()
        .relation("P", ["A", "B"])
        .relation("Q", ["X", "Y", "Z"])
        .finish()
        .unwrap()
        .into_shared();
    let psi13 = Ic::builder(&sc13, "psi")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("Q", [v("x"), v("z"), v("z")])
        .finish()
        .unwrap();
    let d13 = inst(
        &sc13,
        &[
            ("P", vec![s("a"), s("b")]),
            ("P", vec![null(), s("c")]),
            ("Q", vec![s("a"), null(), null()]),
        ],
    );
    check(
        "Example 13 null witness accepted",
        "true",
        is_consistent(&d13, &IcSet::new([Constraint::from(psi13)])),
    );
}

fn example14_setup() -> (Arc<Schema>, Instance, IcSet) {
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
    (sc, d, IcSet::new([Constraint::from(ric)]))
}

fn e11() {
    header("E11", "Examples 14–15: classic repairs vs null-based repairs (figure: repair count vs domain size)");
    let (_, d, ics) = example14_setup();
    println!("| |domain| | classic repairs (paper: |domain|+1, → ∞) | null repairs (paper: 2) |");
    println!("|---|---|---|");
    for k in [1usize, 2, 4, 8, 16] {
        let domain: Vec<Value> = (0..k).map(|j| s(&format!("mu{j}"))).collect();
        let classic_count = classic::repairs_with_domain(&d, &ics, &domain, 1 << 22)
            .unwrap()
            .len();
        let null_count = cqa_core::repairs(&d, &ics, RepairConfig::default())
            .unwrap()
            .len();
        println!("| {k} | {classic_count} | {null_count} |");
    }
    println!("\nthe two null-based repairs (paper's Example 15):");
    for r in cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap() {
        println!("  {}", instance_set(&r));
    }
}

fn e12() {
    header("E12", "Example 16: repairs and ≤_D incomparability");
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
    let reps = cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap();
    println!("paper: D1 = {{}}, D2 = {{P(a,c), Q(a,null)}}\nmeasured:");
    for r in &reps {
        println!("  {}", instance_set(r));
    }
    println!(
        "pairwise ≤_D-incomparable: {}",
        !cqa_core::leq_d(&d, &reps[0], &reps[1]).unwrap()
            && !cqa_core::leq_d(&d, &reps[1], &reps[0]).unwrap()
    );
}

fn e13() {
    header("E13", "Example 17: R(b, null) dominates R(b, d)");
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
    println!("paper: two repairs, D1 with R(b,null), D2 deleting P(b,c)\nmeasured:");
    for r in cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap() {
        println!("  {}", instance_set(&r));
    }
    let d3 = d.with_atom(&cqa_relational::DatabaseAtom::new(
        sc.rel_id("R").unwrap(),
        Tuple::new(vec![s("b"), s("d")]),
    ));
    println!(
        "D3 (with R(b,d)) consistent but not a repair: consistent={}, dominated={}",
        is_consistent(&d3, &ics),
        cqa_core::lt_d(
            &d,
            &d.with_atom(&cqa_relational::DatabaseAtom::new(
                sc.rel_id("R").unwrap(),
                Tuple::new(vec![s("b"), null()]),
            )),
            &d3
        )
        .unwrap()
    );
}

fn e14() {
    header("E14", "Example 18: the RIC-cyclic set and its four repairs");
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
    println!(
        "RIC-acyclic: {} (paper: cyclic)",
        graph::is_ric_acyclic(&ics)
    );
    println!("paper: exactly 4 repairs (its table on p.13)\nmeasured:");
    let reps = cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap();
    for r in &reps {
        let delta = cqa_relational::delta(&d, r).unwrap();
        println!("  {} (Δ size {})", instance_set(r), delta.len());
    }
    println!(
        "count: {} — decidable despite the cycle (Theorem 2)",
        reps.len()
    );
}

fn example19_setup() -> (Arc<Schema>, Instance, IcSet) {
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
    (sc, d, ics)
}

fn e15() {
    header(
        "E15",
        "Example 19: key + foreign key + NOT NULL — four repairs",
    );
    let (_, d, ics) = example19_setup();
    println!("paper: D1..D4 (p.13)\nmeasured:");
    for r in cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap() {
        println!("  {}", instance_set(&r));
    }
}

fn e16() {
    header("E16", "Example 20: conflicting NOT NULL — Rep vs Rep_d");
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
    println!(
        "conflicting pairs detected: {:?} (paper: the RIC/NNC clash)",
        ics.conflicting_pairs()
    );
    println!(
        "null-based semantics refuses: {}",
        cqa_core::repairs(&d, &ics, RepairConfig::default()).is_err()
    );
    let repd = cqa_core::repairs(
        &d,
        &ics,
        RepairConfig {
            semantics: RepairSemantics::DeletionPreferring,
            ..RepairConfig::default()
        },
    )
    .unwrap();
    println!("Rep_d repairs (paper: the deletion repair {{P(b), Q(b,c)}}):");
    for r in &repd {
        println!("  {}", instance_set(r));
    }
    println!("classic repairs over explicit domains (paper: one per µ):");
    println!("| |domain| | classic repairs |");
    println!("|---|---|");
    for k in [1usize, 3, 6] {
        let domain: Vec<Value> = (0..k).map(|j| s(&format!("mu{j}"))).collect();
        let n = classic::repairs_with_domain(&d, &ics, &domain, 1 << 22)
            .unwrap()
            .len();
        println!("| {k} | {n} |");
    }
}

fn e17() {
    header("E17", "Examples 21–22: the repair programs, rule by rule");
    let (_, d, ics) = example19_setup();
    let program = cqa_core::repair_program(&d, &ics, ProgramStyle::PaperExact).unwrap();
    println!("Π(D, IC) for Example 19/21 (paper-exact style):\n```prolog");
    print!("{program}");
    println!("```");
    println!("note: our rule-2 instances carry IsNull-escape guards for *all*");
    println!("relevant antecedent variables (y != null, z != null), where the");
    println!("paper's Example 21 prints only x != null — see DESIGN.md.");

    // Example 22
    let sc = Schema::builder()
        .relation("P", ["A", "B"])
        .relation("R", ["X"])
        .relation("S", ["Y"])
        .finish()
        .unwrap()
        .into_shared();
    let d22 = inst(
        &sc,
        &[("P", vec![s("a"), s("b")]), ("P", vec![s("c"), null()])],
    );
    let uic = Ic::builder(&sc, "uic")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("R", [v("x")])
        .head_atom("S", [v("y")])
        .finish()
        .unwrap();
    let mut ics22 = IcSet::default();
    ics22.push(uic);
    ics22.push(builders::not_null(&sc, "P", 1).unwrap());
    let p22 = cqa_core::repair_program(&d22, &ics22, ProgramStyle::PaperExact).unwrap();
    let partitions = p22
        .to_string()
        .lines()
        .filter(|l| l.contains("P_fa(x") && l.contains("R_ta("))
        .count();
    println!("\nExample 22 Q'/Q'' partition rules: {partitions} (paper: 4)");
}

fn e18() {
    header("E18", "Example 23: stable models M1–M4 and Theorem 4");
    let (sc, d, ics) = example19_setup();
    let program = cqa_core::repair_program(&d, &ics, ProgramStyle::PaperExact).unwrap();
    let gp = cqa_asp::ground(&program);
    let models = cqa_asp::stable_models(&gp);
    println!(
        "{} ground atoms, {} ground rules, {} stable models (paper: 4)",
        gp.atom_count(),
        gp.rules.len(),
        models.len()
    );
    for (idx, m) in models.iter().enumerate() {
        let dm = cqa_core::program::extract_instance(&sc, &program, &gp, m).unwrap();
        println!("  M{} → D_M = {}", idx + 1, instance_set(&dm));
    }
    let via_program =
        cqa_core::repairs_via_program(&d, &ics, ProgramStyle::PaperExact, false).unwrap();
    let via_engine = cqa_core::repairs(&d, &ics, RepairConfig::default()).unwrap();
    println!(
        "Theorem 4 (models ↔ repairs): {}",
        if via_program == via_engine {
            "holds"
        } else {
            "** FAILS **"
        }
    );
}

fn e18b() {
    header(
        "E18b",
        "the Definition-9 erratum: all-null pre-existing witnesses",
    );
    let sc = Schema::builder()
        .relation("S", ["U", "V"])
        .relation("R", ["X", "Y"])
        .finish()
        .unwrap()
        .into_shared();
    let d = inst(
        &sc,
        &[("S", vec![s("u"), s("a")]), ("R", vec![s("a"), null()])],
    );
    let mut ics = IcSet::default();
    ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
    println!(
        "D = {} with S(u,v) → ∃y R(v,y); |=_N-consistent: {} (Definition 4 counts R(a,null))",
        instance_set(&d),
        is_consistent(&d, &ics)
    );
    for style in [ProgramStyle::PaperExact, ProgramStyle::Corrected] {
        let reps = cqa_core::repairs_via_program(&d, &ics, style, false).unwrap();
        println!("{style:?}: {} model-instances:", reps.len());
        for r in &reps {
            println!("  {}", instance_set(r));
        }
    }
    println!("PaperExact yields a spurious deletion model; Corrected restores");
    println!("the one-to-one correspondence (see DESIGN.md for the analysis).");
}

fn e19() {
    header(
        "E19",
        "Example 24 + Theorem 5: bilateral predicates, HCF, shift",
    );
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
    println!("| check | paper | measured | status |");
    println!("|---|---|---|---|");
    check(
        "bilateral predicates",
        "1",
        graph::bilateral_predicates(&ics).len(),
    );
    check(
        "Theorem 5 condition",
        "true",
        graph::theorem5_hcf_condition(&ics),
    );
    let d = inst(&sc, &[("S", vec![s("1"), s("2")]), ("T", vec![s("9")])]);
    let program = cqa_core::repair_program(&d, &ics, ProgramStyle::Corrected).unwrap();
    let gp = cqa_asp::ground(&program);
    check("ground program HCF", "true", cqa_asp::is_hcf(&gp));
    let shifted = cqa_asp::shift(&gp).unwrap();
    check(
        "shift preserves stable models",
        "true",
        cqa_asp::stable_models(&gp) == cqa_asp::stable_models(&shifted),
    );
    let sym_sc = Schema::builder()
        .relation("P", ["a", "b"])
        .finish()
        .unwrap();
    let sym = Ic::builder(&sym_sc, "sym")
        .body_atom("P", [v("x"), v("y")])
        .head_atom("P", [v("y"), v("x")])
        .finish()
        .unwrap();
    check(
        "P(x,y)→P(y,x) fails Theorem 5",
        "false",
        graph::theorem5_hcf_condition(&IcSet::new([Constraint::from(sym)])),
    );
}

fn e20() {
    header(
        "E20",
        "Theorem 1 shape: repair checking vs instance size and conflicts",
    );
    println!("repair-check = consistency + ≤_D-minimality over the Prop.-1 space;");
    println!("polynomial in clean data, exponential in the candidate universe.\n");
    println!("| clean tuples | key conflicts | universe atoms | check time |");
    println!("|---|---|---|---|");
    for (clean, conflicts) in [(1usize, 1usize), (2, 1), (3, 1), (1, 2)] {
        let w = cqa_bench::fd_workload(clean, conflicts, 11);
        let reps = cqa_core::repairs(&w.instance, &w.ics, RepairConfig::default()).unwrap();
        let universe = cqa_core::bruteforce::candidate_universe(&w.instance, &w.ics);
        if universe.len() > 18 {
            println!(
                "| {clean} | {conflicts} | {} | (skipped: universe too large) |",
                universe.len()
            );
            continue;
        }
        let start = Instant::now();
        let ok = cqa_core::is_repair(&w.instance, &reps[0], &w.ics).unwrap();
        let elapsed = start.elapsed();
        assert!(ok);
        println!(
            "| {clean} | {conflicts} | {} | {elapsed:?} |",
            universe.len()
        );
    }
}

fn e21() {
    header(
        "E21",
        "Theorems 2–3 shape: CQA scaling (data axis vs conflict axis)",
    );
    use cqa_core::query::AnswerSemantics;
    println!("| clean tuples | conflicts | repairs | CQA direct | CQA via program |");
    println!("|---|---|---|---|---|");
    for (clean, conflicts) in [(10usize, 1usize), (20, 1), (40, 1), (10, 3), (10, 5)] {
        let w = cqa_bench::example19_scaled(clean, conflicts, 1, 13);
        let sc = w.instance.schema().clone();
        let q: cqa_core::Query = cqa_core::ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("R", [v("x"), v("y")])
            .finish()
            .unwrap()
            .into();
        let t0 = Instant::now();
        let direct = cqa_core::consistent_answers(
            &w.instance,
            &w.ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        let t_direct = t0.elapsed();
        let t1 = Instant::now();
        let via = cqa_core::consistent_answers_via_program(
            &w.instance,
            &w.ics,
            &q,
            ProgramStyle::Corrected,
            AnswerSemantics::IncludeNullAnswers,
        )
        .unwrap();
        let t_program = t1.elapsed();
        assert_eq!(direct, via);
        let n_reps = cqa_core::repairs(&w.instance, &w.ics, RepairConfig::default())
            .unwrap()
            .len();
        println!("| {clean} | {conflicts} | {n_reps} | {t_direct:?} | {t_program:?} |");
    }
    println!("\n(the conflict axis drives repair count exponentially — the Π₂ᵖ");
    println!("hardness axis — while the data axis stays polynomial)");
}

fn e22() {
    header(
        "E22",
        "Corollary 1 shape: HCF / shifted-normal vs disjunctive solving",
    );
    println!("| overlap (denial violations) | atoms | disjunctive solve | shifted-normal solve | models |");
    println!("|---|---|---|---|---|");
    for overlap in [2usize, 4, 6, 8] {
        let w = cqa_bench::denial_workload(20, overlap, 17);
        let program =
            cqa_core::repair_program(&w.instance, &w.ics, ProgramStyle::Corrected).unwrap();
        let gp = cqa_asp::ground(&program);
        assert!(cqa_asp::is_hcf(&gp));
        let t0 = Instant::now();
        let disj = cqa_asp::stable_models(&gp);
        let t_disj = t0.elapsed();
        let shifted = cqa_asp::shift(&gp).unwrap();
        let t1 = Instant::now();
        let norm = cqa_asp::stable_models(&shifted);
        let t_norm = t1.elapsed();
        assert_eq!(disj, norm);
        println!(
            "| {overlap} | {} | {t_disj:?} | {t_norm:?} | {} |",
            gp.atom_count(),
            disj.len()
        );
    }
    println!("\n(the shifted program uses the polynomial least-model stability");
    println!("fast path — the coNP-vs-Π₂ᵖ drop of Corollary 1 in the small)");
}

fn e23() {
    header("E23", "Proposition 1: active-domain containment sweep");
    let mut checked = 0;
    for seed in 0..20u64 {
        let w = cqa_bench::example19_scaled(3, 1, 1, seed);
        let reps = cqa_core::repairs(&w.instance, &w.ics, RepairConfig::default()).unwrap();
        let mut allowed = w.instance.active_domain();
        allowed.extend(w.ics.constants());
        allowed.insert(Value::Null);
        for r in &reps {
            assert!(!r.active_domain().iter().any(|val| !allowed.contains(val)));
            checked += 1;
        }
    }
    println!("{checked} repairs over 20 random databases: every active domain");
    println!("within adom(D) ∪ const(IC) ∪ {{null}} — Proposition 1 holds.");
}

fn e24() {
    header(
        "E24",
        "grounding scaling (the Section-5 substrate; figure: atoms/rules vs |D|)",
    );
    println!("| facts | ground atoms | ground rules | grounding time |");
    println!("|---|---|---|---|");
    for n in [50usize, 100, 200, 400] {
        let w = cqa_bench::example19_scaled(n, 2, 2, 19);
        let program =
            cqa_core::repair_program(&w.instance, &w.ics, ProgramStyle::Corrected).unwrap();
        let t0 = Instant::now();
        let gp = cqa_asp::ground(&program);
        let elapsed = t0.elapsed();
        println!(
            "| {} | {} | {} | {elapsed:?} |",
            w.instance.len(),
            gp.atom_count(),
            gp.rules.len()
        );
    }
}

fn e25() {
    header(
        "E25",
        "ablation: relevance-pruned repair programs ([12] direction)",
    );
    println!(
        "| relations (constrained+audit) | full program rules | pruned rules | same repairs |"
    );
    println!("|---|---|---|---|");
    for extra in [1usize, 4, 8] {
        let mut builder = Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U", "V"]);
        for j in 0..extra {
            builder = builder.relation(format!("Audit{j}"), ["who", "what"]);
        }
        let sc = builder.finish().unwrap().into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [s("a"), s("c")]).unwrap();
        d.insert_named("S", [null(), s("a")]).unwrap();
        for j in 0..extra {
            d.insert_named(&format!("Audit{j}"), [s("w"), s("x")])
                .unwrap();
        }
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        let full = cqa_core::repair_program(&d, &ics, ProgramStyle::Corrected).unwrap();
        let pruned =
            cqa_core::repair_program_with(&d, &ics, ProgramStyle::Corrected, true).unwrap();
        let same = cqa_core::repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap()
            == cqa_core::repairs_via_program(&d, &ics, ProgramStyle::Corrected, true).unwrap();
        println!(
            "| 2+{extra} | {} | {} | {} |",
            full.rules().len(),
            pruned.rules().len(),
            same
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<(&str, fn())> = vec![
        ("e01", e01 as fn()),
        ("e02", e02),
        ("e03", e03),
        ("e04", e04),
        ("e05", e05),
        ("e06", e06),
        ("e07", e07),
        ("e08", e08),
        ("e09", e09),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
        ("e18b", e18b),
        ("e19", e19),
        ("e20", e20),
        ("e21", e21),
        ("e22", e22),
        ("e23", e23),
        ("e24", e24),
        ("e25", e25),
    ];
    println!("# nullcqa experiment harness — paper artefact reproduction");
    println!("\n(paper: Bravo & Bertossi, EDBT 2006, arXiv cs/0604076)");
    let selected: Vec<&(&str, fn())> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.iter().collect()
    } else {
        all.iter()
            .filter(|(id, _)| args.iter().any(|a| a.eq_ignore_ascii_case(id)))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no experiment matched; known ids:");
        for (id, _) in &all {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }
    for (_, run) in selected {
        run();
    }
}
