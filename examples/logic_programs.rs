//! The logic-program pipeline of the paper's Section 5: build the repair
//! program Π(D, IC) (Definition 9, reproduced from Example 21), ground
//! it, enumerate its stable models (Example 23), extract the repairs
//! (Definition 10), and check head-cycle-freeness (Section 6).
//!
//! Run with `cargo run --example logic_programs`.

use cqa::asp;
use cqa::constraints::{builders, graph, IcSet};
use cqa::prelude::*;
use cqa::relational::display::instance_set;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Example 19's database and constraints.
    let schema = Schema::builder()
        .relation("r", ["x", "y"])
        .relation("s", ["u", "v"])
        .finish()?
        .into_shared();
    let mut d = Instance::empty(schema.clone());
    d.insert_named("r", [s("a"), s("b")])?;
    d.insert_named("r", [s("a"), s("c")])?;
    d.insert_named("s", [s("e"), s("f")])?;
    d.insert_named("s", [null(), s("a")])?;
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&schema, "r", &[0], 1)?);
    ics.push(builders::foreign_key(&schema, "s", &[1], "r", &[0])?);
    ics.push(builders::not_null(&schema, "r", 0)?);

    println!("== RIC-acyclicity (Definition 1) ==");
    println!("RIC-acyclic: {}", graph::is_ric_acyclic(&ics));
    println!(
        "bilateral predicates (Definition 11): {:?} → Theorem 5 HCF condition: {}",
        graph::bilateral_predicates(&ics).len(),
        graph::theorem5_hcf_condition(&ics)
    );

    println!("\n== Π(D, IC) — the Example 21 program ==");
    let program = cqa_core::repair_program(&d, &ics, ProgramStyle::PaperExact)?;
    print!("{program}");

    println!("\n== grounding and stable models (Example 23) ==");
    let gp = asp::ground(&program);
    println!(
        "{} ground atoms, {} ground rules, head-cycle-free: {}",
        gp.atom_count(),
        gp.rules.len(),
        asp::is_hcf(&gp)
    );
    let models = asp::stable_models(&gp);
    println!("{} stable models:", models.len());
    for (i, m) in models.iter().enumerate() {
        let instance = cqa_core::program::extract_instance(&schema, &program, &gp, m)?;
        println!("  M{} → D_M = {}", i + 1, instance_set(&instance));
    }

    println!("\n== Theorem 4: they are exactly the repairs ==");
    for r in repairs(&d, &ics, RepairConfig::default())? {
        println!("  repair: {}", instance_set(&r));
    }

    println!("\n== Section 6: shifting the HCF program to a normal one ==");
    let shifted = asp::shift(&gp)?;
    println!(
        "shifted program is normal: {}; same stable models: {}",
        shifted.is_normal(),
        asp::stable_models(&shifted) == models
    );
    Ok(())
}

use cqa::core as cqa_core;
