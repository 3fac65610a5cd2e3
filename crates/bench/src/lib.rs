//! Workload generators shared by the benches and the `experiments`
//! binary, plus the dependency-free timing harness ([`harness`]).
//!
//! Each generator produces `(Instance, IcSet)` pairs whose inconsistency
//! profile is controlled precisely, so the benches can separate the two
//! complexity axes the paper's theorems talk about: *data size* (the
//! polynomial axis for checking) and *number of interacting violations*
//! (the exponential axis for repair enumeration and Π₂ᵖ-hard CQA).
//!
//! Randomness comes from the workspace's own deterministic
//! [`XorShift`] generator — no external
//! crates, and identical workloads on every run and platform.

pub mod harness;

use cqa_constraints::{builders, v, Constraint, Ic, IcSet};
use cqa_relational::testing::XorShift;
use cqa_relational::{s, Instance, Schema, Value};

/// A generated workload.
pub struct Workload {
    /// The database.
    pub instance: Instance,
    /// Its constraints.
    pub ics: IcSet,
}

/// Key/FD workload: relation `R(k, v)` with a key on `k`; `clean` tuples
/// with unique keys plus `violations` key-conflicting pairs.
pub fn fd_workload(clean: usize, violations: usize, seed: u64) -> Workload {
    let schema = Schema::builder()
        .relation("R", ["k", "v"])
        .finish()
        .expect("static schema")
        .into_shared();
    let mut rng = XorShift::new(seed);
    let mut instance = Instance::empty(schema.clone());
    for i in 0..clean {
        instance
            .insert_named(
                "R",
                [
                    s(&format!("k{i}")),
                    s(&format!("v{}", (rng.next_u64() % 65536))),
                ],
            )
            .expect("arity");
    }
    for i in 0..violations {
        let key = format!("dup{i}");
        instance
            .insert_named("R", [s(&key), s("a")])
            .expect("arity");
        instance
            .insert_named("R", [s(&key), s("b")])
            .expect("arity");
    }
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&schema, "R", &[0], 1).expect("static"));
    Workload { instance, ics }
}

/// Foreign-key workload: `child(id, ref)` → `parent(id, payload)` with
/// `dangling` children referencing absent parents, plus nulls sprinkled
/// into the non-relevant payload column.
pub fn fk_workload(children: usize, parents: usize, dangling: usize, seed: u64) -> Workload {
    let schema = Schema::builder()
        .relation("parent", ["id", "payload"])
        .relation("child", ["id", "pref"])
        .finish()
        .expect("static schema")
        .into_shared();
    let mut rng = XorShift::new(seed);
    let mut instance = Instance::empty(schema.clone());
    for i in 0..parents {
        let payload = if rng.chance(1, 5) {
            Value::Null
        } else {
            s(&format!("p{i}"))
        };
        instance
            .insert_named("parent", [s(&format!("id{i}")), payload])
            .expect("arity");
    }
    for i in 0..children {
        let target = rng.below(parents.max(1));
        instance
            .insert_named("child", [s(&format!("c{i}")), s(&format!("id{target}"))])
            .expect("arity");
    }
    for i in 0..dangling {
        instance
            .insert_named(
                "child",
                [s(&format!("dangle{i}")), s(&format!("missing{i}"))],
            )
            .expect("arity");
    }
    let mut ics = IcSet::default();
    ics.push(builders::foreign_key(&schema, "child", &[1], "parent", &[0]).expect("static"));
    Workload { instance, ics }
}

/// The Example 19 shape scaled up: key + FK + NOT NULL with controllable
/// numbers of key conflicts and dangling references.
pub fn example19_scaled(
    clean: usize,
    key_conflicts: usize,
    dangling: usize,
    seed: u64,
) -> Workload {
    let schema = Schema::builder()
        .relation("R", ["x", "y"])
        .relation("S", ["u", "v"])
        .finish()
        .expect("static schema")
        .into_shared();
    let mut rng = XorShift::new(seed);
    let mut instance = Instance::empty(schema.clone());
    for i in 0..clean {
        instance
            .insert_named(
                "R",
                [
                    s(&format!("r{i}")),
                    s(&format!("y{}", (rng.next_u64() % 65536))),
                ],
            )
            .expect("arity");
        instance
            .insert_named("S", [s(&format!("s{i}")), s(&format!("r{i}"))])
            .expect("arity");
    }
    for i in 0..key_conflicts {
        instance
            .insert_named("R", [s(&format!("dup{i}")), s("a")])
            .expect("arity");
        instance
            .insert_named("R", [s(&format!("dup{i}")), s("b")])
            .expect("arity");
    }
    for i in 0..dangling {
        instance
            .insert_named("S", [Value::Null, s(&format!("gone{i}"))])
            .expect("arity");
    }
    let mut ics = IcSet::default();
    ics.push(builders::functional_dependency(&schema, "R", &[0], 1).expect("static"));
    ics.push(builders::foreign_key(&schema, "S", &[1], "R", &[0]).expect("static"));
    ics.push(builders::not_null(&schema, "R", 0).expect("static"));
    Workload { instance, ics }
}

/// Denial-only workload (Corollary 1's class): `P(x) ∧ Q(x) → false` with
/// `overlap` shared values — every repair program is head-cycle-free.
pub fn denial_workload(size: usize, overlap: usize, seed: u64) -> Workload {
    let schema = Schema::builder()
        .relation("P", ["a"])
        .relation("Q", ["b"])
        .finish()
        .expect("static schema")
        .into_shared();
    let mut rng = XorShift::new(seed);
    let mut instance = Instance::empty(schema.clone());
    for i in 0..size {
        instance
            .insert_named("P", [s(&format!("p{i}"))])
            .expect("arity");
        instance
            .insert_named("Q", [s(&format!("q{i}"))])
            .expect("arity");
    }
    for i in 0..overlap {
        let shared = format!("both{}", rng.below(overlap.max(1)).max(i));
        instance.insert_named("P", [s(&shared)]).expect("arity");
        instance.insert_named("Q", [s(&shared)]).expect("arity");
    }
    let denial = Ic::builder(&schema, "den")
        .body_atom("P", [v("x")])
        .body_atom("Q", [v("x")])
        .finish()
        .expect("static");
    Workload {
        instance,
        ics: IcSet::new([Constraint::from(denial)]),
    }
}

/// A universal-IC chain `T₁(x) → T₂(x) → … → Tₙ(x)` with seeds in `T₁`,
/// used for grounding/chase scaling.
pub fn chain_workload(length: usize, seeds: usize) -> Workload {
    let mut builder = Schema::builder();
    for i in 0..length {
        builder = builder.relation(format!("T{i}"), ["x"]);
    }
    let schema = builder.finish().expect("static").into_shared();
    let mut instance = Instance::empty(schema.clone());
    for j in 0..seeds {
        instance
            .insert_named("T0", [s(&format!("v{j}"))])
            .expect("arity");
    }
    let mut ics = IcSet::default();
    for i in 0..length - 1 {
        let ic = Ic::builder(&schema, format!("step{i}"))
            .body_atom(&format!("T{i}"), [v("x")])
            .head_atom(&format!("T{}", i + 1), [v("x")])
            .finish()
            .expect("static");
        ics.push(ic);
    }
    Workload { instance, ics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{is_consistent, violations, SatMode};
    use cqa_core::RepairConfig;

    #[test]
    fn fd_workload_violation_count() {
        let w = fd_workload(50, 3, 7);
        assert!(!is_consistent(&w.instance, &w.ics));
        // each conflicting pair yields 2 violations (both orientations)
        assert_eq!(violations(&w.instance, &w.ics, SatMode::NullAware).len(), 6);
        let clean = fd_workload(50, 0, 7);
        assert!(is_consistent(&clean.instance, &clean.ics));
    }

    #[test]
    fn fk_workload_dangling_count() {
        let w = fk_workload(30, 10, 4, 7);
        assert_eq!(violations(&w.instance, &w.ics, SatMode::NullAware).len(), 4);
    }

    #[test]
    fn example19_scaled_matches_repair_count() {
        // one key conflict (2 choices) × one dangling FK (2 choices) = 4.
        let w = example19_scaled(5, 1, 1, 7);
        let reps = cqa_core::repairs(&w.instance, &w.ics, RepairConfig::default()).unwrap();
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn denial_workload_is_hcf() {
        let w = denial_workload(5, 2, 7);
        let program =
            cqa_core::repair_program(&w.instance, &w.ics, cqa_core::ProgramStyle::Corrected)
                .unwrap();
        let gp = cqa_asp::ground(&program);
        assert!(cqa_asp::is_hcf(&gp));
    }

    #[test]
    fn chain_workload_is_ric_acyclic_and_repairable() {
        let w = chain_workload(4, 2);
        assert!(cqa_constraints::graph::is_ric_acyclic(&w.ics));
        let reps = cqa_core::repairs(&w.instance, &w.ics, RepairConfig::default()).unwrap();
        // each seed independently: delete or chase through the chain
        assert_eq!(reps.len(), 4); // 2 seeds × 2 choices… minimised set
    }

    #[test]
    fn generators_are_deterministic() {
        let a = fd_workload(20, 2, 42);
        let b = fd_workload(20, 2, 42);
        assert_eq!(a.instance, b.instance);
    }
}
