//! Bench: repair enumeration — polynomial in clean data for a fixed
//! number of conflicts, exponential in the number of interacting
//! conflicts (the Theorem 1/3 shape), and the classic-vs-null baseline
//! of Examples 14/15.

use cqa_bench::harness::Harness;
use cqa_constraints::IcSet;
use cqa_core::{repairs_with_config_governed, CqaCaches, RepairConfig};
use cqa_relational::{s, CancelToken, Instance, Value};
use std::hint::black_box;

/// A timed `repairs` call over `(d, ics)` against one [`CqaCaches`]
/// bundle created outside the timed closure, so repeat calls hit the
/// warm root scan.
fn repairs_of<'a>(d: &'a Instance, ics: &'a IcSet) -> impl FnMut() -> Vec<Instance> + 'a {
    let caches = CqaCaches::new();
    let never = CancelToken::never();
    move || repairs_with_config_governed(d, ics, RepairConfig::default(), &caches, &never).unwrap()
}

fn data_axis() {
    // Fixed 2 key conflicts + 1 dangling FK; growing clean data.
    let mut group = Harness::new("repairs_data_axis");
    for clean in [20usize, 80, 320] {
        let w = cqa_bench::example19_scaled(clean, 2, 1, 23);
        let mut repairs = repairs_of(&w.instance, &w.ics);
        group.bench(format!("{clean}"), || black_box(repairs()));
    }
    group.finish();
}

fn conflict_axis() {
    // Fixed clean data; growing conflict count → 2^k repairs.
    let mut group = Harness::new("repairs_conflict_axis");
    for conflicts in [2usize, 4, 6, 8] {
        let w = cqa_bench::fd_workload(10, conflicts, 29);
        let mut repairs = repairs_of(&w.instance, &w.ics);
        group.bench(format!("{conflicts}"), || {
            let reps = repairs();
            assert_eq!(reps.len(), 1 << conflicts);
            black_box(reps)
        });
    }
    group.finish();
}

fn classic_vs_null() {
    // Example 14/15 shape: the null semantics is domain-independent, the
    // classic baseline pays per domain value.
    let sc = cqa_relational::Schema::builder()
        .relation("Course", ["ID", "Code"])
        .relation("Student", ["ID", "Name"])
        .finish()
        .unwrap()
        .into_shared();
    let mut d = cqa_relational::Instance::empty(sc.clone());
    d.insert_named("Course", [s("21"), s("C15")]).unwrap();
    d.insert_named("Course", [s("34"), s("C18")]).unwrap();
    d.insert_named("Student", [s("21"), s("Ann")]).unwrap();
    let ric = cqa_constraints::builders::foreign_key(&sc, "Course", &[0], "Student", &[0]).unwrap();
    let ics = cqa_constraints::IcSet::new([cqa_constraints::Constraint::from(ric)]);

    let mut group = Harness::new("classic_vs_null");
    let mut repairs = repairs_of(&d, &ics);
    group.bench("null_semantics", || black_box(repairs()));
    for k in [4usize, 16, 64] {
        let domain: Vec<Value> = (0..k).map(|j| s(&format!("mu{j}"))).collect();
        group.bench(format!("classic_domain/{k}"), || {
            black_box(cqa_core::classic::repairs_with_domain(&d, &ics, &domain, 1 << 22).unwrap())
        });
    }
    group.finish();
}

fn main() {
    data_axis();
    conflict_axis();
    classic_vs_null();
}
