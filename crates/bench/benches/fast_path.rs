//! Bench: the polynomial fast-path planner vs repair enumeration.
//!
//! `fast_path/{clean}` runs the plan-first CQA entry point on a key-FD
//! workload (the planner dispatches the FO-rewrite route), and
//! `chase/{clean}` runs the same workload plus a denial (forcing the
//! deletion-only chase route). Both scale to clean tuple counts that
//! repair enumeration cannot touch: with 8 conflicting key pairs the
//! violation hypergraph has 2⁸ = 256 repairs, so `enumeration/800`
//! materialises 256 instances of ~800 tuples each — already hundreds of
//! milliseconds — and is only recorded at the smallest size (8k/80k
//! would be pure waiting; the planner's point is that they never run).
//!
//! `point/80000` is a point read by key on the largest workload, through
//! the same FO-rewrite route: its candidates come from one probe of the
//! key column's index, so it costs O(1) in the instance, not a scan.
//!
//! The headline numbers are `fast_path/80000` (guarded against
//! regression in `bench_check`) and the within-run ratios
//! `fast_path/800 ÷ enumeration/800` (gated host-independently at
//! ≤ 0.05x in `bench_check`) and `point/80000 ÷ fast_path/80000` (gated
//! at ≤ 0.001x: a point read that scans the relation converges on
//! about 0.01x).
//!
//! Every series runs against one [`CqaCaches`] bundle created outside its
//! timed closure, so repeat calls hit the warm root scan.

use cqa_bench::harness::Harness;
use cqa_constraints::{c, v, Ic};
use cqa_core::query::{AnswerSemantics, QueryNullSemantics};
use cqa_core::{
    consistent_answers_enumerated_governed, consistent_answers_governed, plan_query, CqaCaches,
    PlanRoute, RepairConfig,
};
use cqa_relational::{s, CancelToken};
use std::hint::black_box;

fn query_for(w: &cqa_bench::Workload) -> cqa_core::Query {
    cqa_core::ConjunctiveQuery::builder(w.instance.schema(), "q", ["k", "v"])
        .atom("R", [v("k"), v("v")])
        .finish()
        .unwrap()
        .into()
}

fn main() {
    let mut group = Harness::new("fast_path");
    let config = RepairConfig::default();
    let never = CancelToken::never();
    let mut fast_800_ns: u128 = 0;
    for clean in [800usize, 8_000, 80_000] {
        let w = cqa_bench::fd_workload(clean, 8, 41);
        let q = query_for(&w);
        let caches = CqaCaches::new();
        assert_eq!(
            plan_query(&w.ics, &q, &config).route,
            PlanRoute::FoRewrite,
            "key-FD workload must take the FO-rewrite route"
        );
        let fast = group
            .bench(format!("fast_path/{clean}"), || {
                black_box(
                    consistent_answers_governed(
                        &w.instance,
                        &w.ics,
                        &q,
                        config,
                        AnswerSemantics::IncludeNullAnswers,
                        QueryNullSemantics::NullAsValue,
                        &caches,
                        &never,
                    )
                    .unwrap(),
                )
            })
            .median_ns;
        if clean == 800 {
            fast_800_ns = fast;
        }
        if clean == 80_000 {
            let point: cqa_core::Query =
                cqa_core::ConjunctiveQuery::builder(w.instance.schema(), "p", ["v"])
                    .atom("R", [c(s("k40000")), v("v")])
                    .finish()
                    .unwrap()
                    .into();
            assert_eq!(
                plan_query(&w.ics, &point, &config).route,
                PlanRoute::FoRewrite
            );
            group.bench(format!("point/{clean}"), || {
                black_box(
                    consistent_answers_governed(
                        &w.instance,
                        &w.ics,
                        &point,
                        config,
                        AnswerSemantics::IncludeNullAnswers,
                        QueryNullSemantics::NullAsValue,
                        &caches,
                        &never,
                    )
                    .unwrap(),
                )
            });
        }
        // The same workload with a denial added is no longer key-FD-only,
        // so the planner falls to the deletion-only chase route.
        let mut chase_ics = w.ics.clone();
        chase_ics.push(
            Ic::builder(w.instance.schema(), "den")
                .body_atom("R", [v("x"), v("x")])
                .finish()
                .unwrap(),
        );
        assert_eq!(
            plan_query(&chase_ics, &q, &config).route,
            PlanRoute::Chase,
            "FD + denial must take the chase route"
        );
        group.bench(format!("chase/{clean}"), || {
            black_box(
                consistent_answers_governed(
                    &w.instance,
                    &chase_ics,
                    &q,
                    config,
                    AnswerSemantics::IncludeNullAnswers,
                    QueryNullSemantics::NullAsValue,
                    &caches,
                    &never,
                )
                .unwrap(),
            )
        });
    }
    // Enumeration baseline, smallest size only (see module docs).
    let w = cqa_bench::fd_workload(800, 8, 41);
    let q = query_for(&w);
    let caches = CqaCaches::new();
    let enum_ns = group
        .bench("enumeration/800", || {
            black_box(
                consistent_answers_enumerated_governed(
                    &w.instance,
                    &w.ics,
                    &q,
                    config,
                    AnswerSemantics::IncludeNullAnswers,
                    QueryNullSemantics::NullAsValue,
                    &caches,
                    &never,
                )
                .unwrap(),
            )
        })
        .median_ns;
    println!(
        "  -> fast path vs enumeration at clean=800: {:.1}x faster ({:.4}x)",
        enum_ns as f64 / fast_800_ns.max(1) as f64,
        fast_800_ns as f64 / enum_ns.max(1) as f64,
    );
    group.finish();
}
