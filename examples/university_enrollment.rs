//! The university scenario of the paper's Examples 5, 14 and 15: course
//! records referencing lecturers, with missing information repaired by
//! `null` — and a comparison with the classic (pre-null) repair semantics
//! where insertions must invent concrete values.
//!
//! Run with `cargo run --example university_enrollment`.

use cqa::constraints::{builders, IcSet};
use cqa::core::classic;
use cqa::prelude::*;
use cqa::relational::display::{instance_set, instance_tables};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Example 5's schema: Course(Code, ID, Term), Exp(ID, Code, Times)
    // with the foreign key (ID, Code) → Exp(ID, Code).
    let schema = Schema::builder()
        .relation("Course", ["Code", "ID", "Term"])
        .relation("Exp", ["ID", "Code", "Times"])
        .finish()?
        .into_shared();
    let mut d = Instance::empty(schema.clone());
    d.insert_named("Course", [s("CS27"), i(21).to_string().into(), s("W04")])?;
    d.insert_named("Course", [s("CS18"), s("34"), null()])?;
    d.insert_named("Course", [s("CS50"), null(), s("W05")])?;
    d.insert_named("Exp", [s("21"), s("CS27"), s("3")])?;
    d.insert_named("Exp", [s("34"), s("CS18"), null()])?;
    d.insert_named("Exp", [s("45"), s("CS32"), s("2")])?;

    let fk = builders::foreign_key(&schema, "Course", &[1, 0], "Exp", &[0, 1])?;
    let ics = IcSet::new([Constraint::from(fk)]);

    println!("{}", instance_tables(&d));
    // DB2 accepts this database (simple match): Course(CS50, null, W05)
    // has null in a referencing column, so the FK is not checked.
    println!(
        "consistent under |=_N (simple-match generalisation): {}",
        cqa::constraints::is_consistent(&d, &ics)
    );
    // Inserting (CS41, 18, null) is rejected — 18/CS41 has no Exp row:
    println!(
        "insert Course(CS41, 18, null) allowed: {}",
        cqa::constraints::insertion_allowed(&d, &ics, "Course", [s("CS41"), s("18"), null()])
    );

    // Examples 14/15: Course(ID, Code) → ∃Name Student(ID, Name).
    println!("\n== Examples 14/15: repairs with nulls vs classic repairs ==");
    let schema2 = Schema::builder()
        .relation("Course2", ["ID", "Code"])
        .relation("Student", ["ID", "Name"])
        .finish()?
        .into_shared();
    let mut d2 = Instance::empty(schema2.clone());
    d2.insert_named("Course2", [s("21"), s("C15")])?;
    d2.insert_named("Course2", [s("34"), s("C18")])?; // dangling
    d2.insert_named("Student", [s("21"), s("Ann")])?;
    d2.insert_named("Student", [s("45"), s("Paul")])?;
    let ric = builders::foreign_key(&schema2, "Course2", &[0], "Student", &[0])?;
    let ics2 = IcSet::new([Constraint::from(ric)]);

    println!("null-based repairs (always exactly these two):");
    for r in repairs(&d2, &ics2, RepairConfig::default())? {
        println!("  {}", instance_set(&r));
    }

    println!("classic repairs grow with the candidate domain:");
    for k in [1usize, 3, 6] {
        let domain: Vec<Value> = (0..k).map(|j| s(&format!("mu{j}"))).collect();
        let reps = classic::repairs_with_domain(&d2, &ics2, &domain, 1 << 20)?;
        println!("  |domain| = {k}: {} repairs", reps.len());
    }
    println!("(over the paper's infinite domain: infinitely many — the\n reason the null-based semantics exists)");
    Ok(())
}
