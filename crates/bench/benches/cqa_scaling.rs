//! Bench: consistent query answering — direct (repair intersection) vs
//! program-based (cautious reasoning over Π(D, IC)), on the data and
//! conflict axes; plus the **instance-size axis** for the repair engine
//! itself: clean (non-conflicting) tuples grow while the conflict count
//! stays fixed, so per-node search cost should stay conflict-bounded for
//! the incremental worklist engine.
//!
//! The **query-evaluation axis** (`query_eval`) answers two queries over
//! the paper's Example 19 scaled to 800 clean tuples with 64 repairs:
//! the FK join `q(u, y) :- S(u, v), R(v, y).` against a scan of one
//! relation. Evaluation probes the inner atom's index once per outer
//! binding, so the join costs a small multiple of the scan, where a
//! nested-loop join costs |S|·|R| per repair.
//!
//! Every series runs against one [`CqaCaches`] bundle created outside its
//! timed closure, so repeat calls hit the warm root scan and grounding.

use cqa_bench::harness::Harness;
use cqa_constraints::v;
use cqa_core::query::{AnswerSemantics, QueryNullSemantics};
use cqa_core::{
    consistent_answers_governed, consistent_answers_via_program_governed,
    repairs_with_config_governed, CqaCaches, ProgramStyle, RepairConfig,
};
use cqa_relational::CancelToken;
use std::hint::black_box;

fn query_for(w: &cqa_bench::Workload) -> cqa_core::Query {
    cqa_core::ConjunctiveQuery::builder(w.instance.schema(), "q", ["x"])
        .atom("R", [v("x"), v("y")])
        .finish()
        .unwrap()
        .into()
}

/// `direct/{label}` and `via_program/{label}` on one workload.
fn direct_vs_program(group: &mut Harness, w: &cqa_bench::Workload, label: usize) {
    let q = query_for(w);
    let caches = CqaCaches::new();
    let never = CancelToken::never();
    group.bench(format!("direct/{label}"), || {
        black_box(
            consistent_answers_governed(
                &w.instance,
                &w.ics,
                &q,
                RepairConfig::default(),
                AnswerSemantics::IncludeNullAnswers,
                QueryNullSemantics::NullAsValue,
                &caches,
                &never,
            )
            .unwrap(),
        )
    });
    group.bench(format!("via_program/{label}"), || {
        black_box(
            consistent_answers_via_program_governed(
                &w.instance,
                &w.ics,
                &q,
                ProgramStyle::Corrected,
                AnswerSemantics::IncludeNullAnswers,
                &caches,
                &never,
            )
            .unwrap(),
        )
    });
}

fn cqa_engines() {
    let mut group = Harness::new("cqa_direct_vs_program");
    for clean in [10usize, 40, 160] {
        let w = cqa_bench::example19_scaled(clean, 2, 1, 31);
        direct_vs_program(&mut group, &w, clean);
    }
    group.finish();
}

fn cqa_conflict_axis() {
    let mut group = Harness::new("cqa_conflict_axis");
    for conflicts in [1usize, 3, 5] {
        let w = cqa_bench::example19_scaled(10, conflicts, 1, 37);
        direct_vs_program(&mut group, &w, conflicts);
    }
    group.finish();
}

/// The instance-size axis: conflicts held at 2 key conflicts + 1 dangling
/// FK while clean tuples grow 16×. The incremental engine's node cost is
/// bounded by the conflict neighbourhood, not by the instance.
fn repair_instance_size_axis() {
    let mut group = Harness::new("repair_instance_size_axis");
    for clean in [50usize, 200, 800] {
        let w = cqa_bench::example19_scaled(clean, 2, 1, 31);
        let caches = CqaCaches::new();
        let never = CancelToken::never();
        group.bench(format!("incremental/{clean}"), || {
            black_box(
                repairs_with_config_governed(
                    &w.instance,
                    &w.ics,
                    RepairConfig::default(),
                    &caches,
                    &never,
                )
                .unwrap(),
            )
        });
    }
    group.finish();
}

/// The query-evaluation axis: an index-probed FK join vs a one-relation
/// scan, both answered by repair enumeration (the FK makes the planner
/// enumerate) on one warm bundle.
fn query_eval() {
    let mut group = Harness::new("query_eval");
    let w = cqa_bench::example19_scaled(800, 4, 2, 41);
    let schema = w.instance.schema();
    let join: cqa_core::Query = cqa_core::ConjunctiveQuery::builder(schema, "q", ["u", "y"])
        .atom("S", [v("u"), v("v")])
        .atom("R", [v("v"), v("y")])
        .finish()
        .unwrap()
        .into();
    let scan: cqa_core::Query = cqa_core::ConjunctiveQuery::builder(schema, "q", ["x", "y"])
        .atom("R", [v("x"), v("y")])
        .finish()
        .unwrap()
        .into();
    let caches = CqaCaches::new();
    let never = CancelToken::never();
    for (name, q) in [("join/800", &join), ("scan/800", &scan)] {
        group.bench(name, || {
            black_box(
                consistent_answers_governed(
                    &w.instance,
                    &w.ics,
                    q,
                    RepairConfig::default(),
                    AnswerSemantics::IncludeNullAnswers,
                    QueryNullSemantics::NullAsValue,
                    &caches,
                    &never,
                )
                .unwrap(),
            )
        });
    }
    group.finish();
}

fn main() {
    cqa_engines();
    cqa_conflict_axis();
    repair_instance_size_axis();
    query_eval();
}
