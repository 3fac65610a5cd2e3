//! Bench: the logic-program CQA route on the clean-size axis — the cost
//! profile of the seminaive incremental grounder (PR 4) and the DRed
//! delete–rederive pass (PR 5).
//!
//! Six series per instance size (Example-19 shape, conflicts fixed at
//! 2 key conflicts + 1 dangling FK while clean tuples grow 16×):
//!
//! * `ground_scratch/N` — building a fresh [`GroundingState`] for
//!   Π(D, IC): the possibly-true fixpoint plus full rule instantiation,
//!   O(instance) per call. What every program-route call paid before the
//!   incremental grounder existed.
//! * `reground_delta/N` — applying a **single-fact insertion** to a live
//!   state: seminaive propagation touches only the rules in the delta's
//!   derivation cone, so the cost should be conflict-bounded, not
//!   instance-bounded. The state clone handed to each iteration is set up
//!   *outside* the timed region.
//! * `reground_delete/N` — removing that fact again: the DRed two-pass
//!   (over-delete the cone, rederive survivors), which before PR 5 was a
//!   full rebuild. Symmetric to `reground_delta`, and held to the same
//!   within-run gate: `bench_check` enforces
//!   `reground_delete/800 ≤ 0.25 × ground_scratch/800` (the "delete at
//!   least 4× cheaper than scratch" acceptance bar), alongside the
//!   existing insert-side gate.
//! * `reground_mixed_churn/N` — an alternating insert/delete sequence
//!   (6 ops across both relations) on a live state: the realistic
//!   multi-tenant drift the grounding cache replays.
//!   `reground_mixed_churn/800` is regression-gated against the committed
//!   `BENCH_5.json`.
//! * `solve/N` — stable-model enumeration over the (cached) ground
//!   program with the CDCL learning solver: the downstream consumer whose
//!   input the grounder feeds.
//! * `resolve_delta/N` — the ISSUE-8 closer for the 13× solver gap: a
//!   **warmed** [`SolverState`] (per-partition model cache, learned
//!   clauses, warm heuristics) re-answering after a single-fact delta.
//!   The state clone + delta reground run in untimed setup; the timed
//!   region is [`resolve_on_state`] alone. `bench_check` enforces
//!   `resolve_delta/800 ≤ 0.25 × solve/800` within the same run — the
//!   incremental solver must beat from-scratch enumeration at least 4×,
//!   matching the insert/delete grounder gates.

use cqa_asp::{resolve_on_state, stable_models, GroundingState, SolverState};
use cqa_bench::harness::Harness;
use cqa_core::ProgramStyle;
use cqa_relational::{s, CancelToken};
use std::hint::black_box;

fn program_route() {
    let mut group = Harness::new("program_route");
    let sizes = [50usize, 200, 800];
    let mut insert_ratio_at_largest = f64::NAN;
    let mut delete_ratio_at_largest = f64::NAN;
    for &clean in &sizes {
        let w = cqa_bench::example19_scaled(clean, 2, 1, 31);
        let program =
            cqa_core::repair_program(&w.instance, &w.ics, ProgramStyle::Corrected).unwrap();
        let scratch = group
            .bench(format!("ground_scratch/{clean}"), || {
                black_box(GroundingState::new(&program).ground_program().rules.len())
            })
            .median_ns;
        let base = GroundingState::new(&program);
        let r_pred = base.program().pred_id("R").unwrap();
        let s_pred = base.program().pred_id("S").unwrap();
        let reground = group
            .bench_with_setup(
                format!("reground_delta/{clean}"),
                || base.clone(),
                |mut state| {
                    state.add_fact_named("R", [s("dx"), s("dy")]).unwrap();
                    black_box(state.ground_program().rules.len())
                },
            )
            .median_ns;
        let reground_del = group
            .bench_with_setup(
                format!("reground_delete/{clean}"),
                || {
                    // Untimed: a live state that already absorbed the fact
                    // the timed region deletes.
                    let mut state = base.clone();
                    state.add_fact_named("R", [s("dx"), s("dy")]).unwrap();
                    state
                },
                |mut state| {
                    state.remove_facts([(r_pred, vec![s("dx"), s("dy")])]);
                    black_box(state.ground_program().rules.len())
                },
            )
            .median_ns;
        group.bench_with_setup(
            format!("reground_mixed_churn/{clean}"),
            || base.clone(),
            |mut state| {
                state.add_fact_named("R", [s("mx0"), s("my0")]).unwrap();
                state.add_fact_named("S", [s("ms0"), s("mx0")]).unwrap();
                state.remove_facts([(s_pred, vec![s("ms0"), s("mx0")])]);
                state.add_fact_named("R", [s("mx1"), s("my1")]).unwrap();
                state.remove_facts([(r_pred, vec![s("mx0"), s("my0")])]);
                state.remove_facts([(r_pred, vec![s("mx1"), s("my1")])]);
                black_box(state.ground_program().rules.len())
            },
        );
        let ins_ratio = reground as f64 / scratch.max(1) as f64;
        let del_ratio = reground_del as f64 / scratch.max(1) as f64;
        println!(
            "  -> reground-after-Δ vs scratch at clean={clean}: insert {:.1}x faster ({ins_ratio:.3}x), delete {:.1}x faster ({del_ratio:.3}x)",
            scratch as f64 / reground.max(1) as f64,
            scratch as f64 / reground_del.max(1) as f64,
        );
        if clean == *sizes.last().unwrap() {
            insert_ratio_at_largest = ins_ratio;
            delete_ratio_at_largest = del_ratio;
        }
        let gp = base.ground_program();
        group.bench(format!("solve/{clean}"), || {
            black_box(stable_models(gp).len())
        });
        // Warm a solver state on the base grounding, then time how fast
        // it re-answers after a one-fact insertion (cache hits on every
        // untouched component, clause reuse + warm heuristics on the
        // touched one). Clone + reground are untimed setup.
        let mut warmed = SolverState::new();
        resolve_on_state(&base, &mut warmed, &CancelToken::never()).unwrap();
        group.bench_with_setup(
            format!("resolve_delta/{clean}"),
            || {
                let mut state = base.clone();
                state.add_fact_named("R", [s("dx"), s("dy")]).unwrap();
                (state, warmed.clone())
            },
            |(state, mut solver)| {
                black_box(
                    resolve_on_state(&state, &mut solver, &CancelToken::never())
                        .unwrap()
                        .len(),
                )
            },
        );
    }
    println!(
        "  insert reground/scratch ratio at clean={}: {insert_ratio_at_largest:.3} (target: <= 0.25)",
        sizes.last().unwrap()
    );
    println!(
        "  delete reground/scratch ratio at clean={}: {delete_ratio_at_largest:.3} (target: <= 0.25)",
        sizes.last().unwrap()
    );
    group.finish();
}

fn main() {
    program_route();
}
