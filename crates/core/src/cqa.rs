//! Consistent query answering (Definition 8): an answer is *consistent*
//! when every repair returns it.
//!
//! Two engines, which must agree (and are tested against each other):
//!
//! * [`consistent_answers`] — plan first ([`crate::plan`]), else
//!   enumerate the repairs with the decision engine and intersect the
//!   query answers ([`consistent_answers_enumerated`] skips the planner).
//!   The engine hands each repair out as Δ(D, repair); each evaluation
//!   worker applies a Δ to its one working copy of D, evaluates and
//!   reverts, so no repair is materialised or sorted;
//! * [`consistent_answers_via_program`] — append query rules over the
//!   `t**` predicates to Π(D, IC) and take the cautious consequences of
//!   the stable models (the paper's Section 5 pipeline; Theorem 4 makes
//!   the two coincide for RIC-acyclic sets). Cautious reasoning runs per
//!   program component ([`cqa_asp::cautious_consequences_cancellable`]),
//!   never over whole-program models.
//!
//! Each operation has two spellings: the one-shot form builds a fresh
//! [`CqaCaches`] bundle and runs without a deadline; the `*_governed`
//! form takes the caller's bundle and [`CancelToken`], which is what the
//! `Database` facade passes.

use crate::cache::CqaCaches;
use crate::engine::{minimal_repair_deltas, RepairConfig};
use crate::error::{CoreError, InterruptPhase};
use crate::program::{annotated, ProgramStyle};
use crate::query::{AnswerSemantics, QTerm, Query, QueryNullSemantics};
use cqa_asp::{atom, cmp, neg, pos, tc, tv, AspError, BodyLit, BuiltinOp};
use cqa_constraints::IcSet;
use cqa_relational::{CancelToken, Instance, Tuple};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The result of a CQA call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSet {
    /// The consistent answer tuples (for a boolean query: contains the
    /// empty tuple iff the answer is *yes*).
    pub tuples: BTreeSet<Tuple>,
    /// Answer arity (0 = boolean).
    pub arity: usize,
}

impl AnswerSet {
    /// Boolean-query verdict: `yes` iff the empty tuple is an answer.
    pub fn is_yes(&self) -> bool {
        self.arity == 0 && self.tuples.contains(&Tuple::new(vec![]))
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// No answers?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Consistent answers (Definition 8), one-shot: a fresh [`CqaCaches`]
/// bundle and no deadline. Every knob is exposed: repair configuration,
/// answer-tuple filtering, and the query-evaluation null semantics
/// (`|=q_N` — the paper's Section 7(a) extension point). Plan-first, like
/// [`consistent_answers_governed`].
pub fn consistent_answers(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    config: RepairConfig,
    semantics: AnswerSemantics,
    query_semantics: QueryNullSemantics,
) -> Result<AnswerSet, CoreError> {
    consistent_answers_governed(
        d,
        ics,
        query,
        config,
        semantics,
        query_semantics,
        &CqaCaches::new(),
        &CancelToken::never(),
    )
}

/// [`consistent_answers`] against the caller's cache bundle and under a
/// cancellation token: the repair search polls it per node, and the
/// per-repair evaluation loop polls it per repair, between evaluations
/// (serial and chunked alike). Under
/// [`SearchStrategy::Parallel`](crate::SearchStrategy::Parallel) the
/// per-repair query evaluation and intersection fan out over the same
/// worker count as the repair search (chunked evaluation, then an ordered
/// intersection of the chunk results); a cross-chunk flag stops all
/// workers once any partial intersection is empty. An interrupt in evaluation surfaces as
/// [`CoreError::Interrupted`] with `phase = QueryEvaluation` and
/// `partial` counting the repairs whose answers were fully intersected —
/// the running intersection itself is not returned, since it only
/// over-approximates the consistent answers until every repair is seen.
///
/// **Plan-first**: the request is classified by the fast-path planner
/// ([`crate::plan`]) and answered without repair enumeration when a
/// polynomial route is sound (key FDs → FO-rewrite; deletion-only sets →
/// chase classification). Answers are identical either way — only the
/// resource-limit semantics differ: the fast paths never consult
/// [`RepairConfig::node_budget`]. Use [`consistent_answers_enumerated`]
/// (or its governed form) to force the enumeration route, e.g. as the
/// oracle in planner tests.
#[allow(clippy::too_many_arguments)]
pub fn consistent_answers_governed(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    config: RepairConfig,
    semantics: AnswerSemantics,
    query_semantics: QueryNullSemantics,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<AnswerSet, CoreError> {
    if let Some(answers) = crate::plan::dispatch(
        d,
        ics,
        query,
        &config,
        semantics,
        query_semantics,
        caches,
        cancel,
    )? {
        return Ok(answers);
    }
    consistent_answers_enumerated_governed(
        d,
        ics,
        query,
        config,
        semantics,
        query_semantics,
        caches,
        cancel,
    )
}

/// [`consistent_answers`] with the fast-path planner bypassed: the
/// answer always comes from repair enumeration + intersection. The
/// planner-vs-oracle test suite relies on this to compare both engines on
/// the *same* dispatchable inputs; production callers want
/// [`consistent_answers`] instead. One-shot, like [`consistent_answers`].
pub fn consistent_answers_enumerated(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    config: RepairConfig,
    semantics: AnswerSemantics,
    query_semantics: QueryNullSemantics,
) -> Result<AnswerSet, CoreError> {
    consistent_answers_enumerated_governed(
        d,
        ics,
        query,
        config,
        semantics,
        query_semantics,
        &CqaCaches::new(),
        &CancelToken::never(),
    )
}

/// [`consistent_answers_enumerated`] against the caller's cache bundle
/// and under a cancellation token — the repair-enumeration body that
/// [`consistent_answers_governed`] falls through to when the planner
/// declines. Repairs are evaluated as D + Δ on one working copy per
/// worker, in the engine's discovery order; the intersection does not
/// depend on that order.
#[allow(clippy::too_many_arguments)]
pub fn consistent_answers_enumerated_governed(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    config: RepairConfig,
    semantics: AnswerSemantics,
    query_semantics: QueryNullSemantics,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<AnswerSet, CoreError> {
    let repairs = minimal_repair_deltas(d, ics, config, caches, cancel)?;
    let evaluated = AtomicUsize::new(0);
    let empty = AtomicBool::new(false);
    // One loop for every thread count: with one worker, `map_chunks`
    // runs its single chunk inline.
    let chunks = crate::parallel::map_chunks(repairs.len(), config.strategy.threads(), |range| {
        // The worker's working copy: each repair is D + Δ for the span of
        // one evaluation. The first `apply_delta` copies the relations Δ
        // touches (they are shared with `d` until then), later ones
        // mutate in place, and the inner-atom indexes the evaluator
        // registers are maintained across the worker's repairs.
        let mut work = d.clone();
        let mut local: Option<BTreeSet<Tuple>> = None;
        for (delta, _) in &repairs[range] {
            if empty.load(Ordering::Relaxed) || cancel.is_cancelled() {
                break;
            }
            work.apply_delta(delta);
            let answers = query.eval_with(&work, query_semantics);
            work.revert_delta(delta);
            evaluated.fetch_add(1, Ordering::Relaxed);
            local = Some(match local {
                None => answers,
                Some(mut seen) => {
                    seen.retain(|t| answers.contains(t));
                    seen
                }
            });
            if local.as_ref().is_some_and(BTreeSet::is_empty) {
                empty.store(true, Ordering::Relaxed);
                break;
            }
        }
        local
    });
    let (empty, evaluated) = (empty.into_inner(), evaluated.into_inner());
    // Interrupted means some repair went unevaluated without an empty
    // intersection to excuse it; a token that trips after the last
    // evaluation does not discard a complete answer.
    if !empty && evaluated < repairs.len() {
        return Err(CoreError::Interrupted {
            phase: InterruptPhase::QueryEvaluation,
            partial: evaluated,
        });
    }
    let mut acc = if empty {
        // Some subset of repairs already intersects to nothing, so the
        // full intersection is empty.
        BTreeSet::new()
    } else {
        let mut parts = chunks.into_iter().flatten();
        let mut acc = parts.next().unwrap_or_default();
        for part in parts {
            acc.retain(|t| part.contains(t));
        }
        acc
    };
    if semantics == AnswerSemantics::ExcludeNullAnswers {
        acc.retain(|t| !t.has_null());
    }
    Ok(AnswerSet {
        tuples: acc,
        arity: query.arity(),
    })
}

/// Consistent answers via the repair program: cautious reasoning over
/// Π(D, IC) extended with query rules evaluated on the `t**` relations.
/// One-shot: a fresh [`CqaCaches`] bundle and no deadline.
pub fn consistent_answers_via_program(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    style: ProgramStyle,
    semantics: AnswerSemantics,
) -> Result<AnswerSet, CoreError> {
    consistent_answers_via_program_governed(
        d,
        ics,
        query,
        style,
        semantics,
        &CqaCaches::new(),
        &CancelToken::never(),
    )
}

/// [`consistent_answers_via_program`] against the caller's cache bundle
/// and under a cancellation token. The grounding of Π(D, IC) comes out of
/// the cache (grounded once per instance version, regrounded
/// incrementally on any bounded drift — insertions via the seminaive
/// worklist, deletions via DRed) and only the per-query rules are
/// instantiated on top of a clone. The token governs the cached
/// (re)grounding, the grounding of the per-query rules on the clone, and
/// the cautious-consequence enumeration; the interrupt phase reports
/// whichever stage was cut short.
pub fn consistent_answers_via_program_governed(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    style: ProgramStyle,
    semantics: AnswerSemantics,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<AnswerSet, CoreError> {
    // Deep-clone the shared grounding: the query rules below mutate it.
    let mut state = caches
        .grounding
        .state_for_governed(d, ics, style, false, cancel)?
        .as_ref()
        .clone();
    // The clone's propagation of the query rules is governed too; a trip
    // poisons only this private copy, never the cached state.
    state.set_cancel(cancel.clone());
    let schema = d.schema();
    let ans_pred = "ans__q";
    for cq in query.disjuncts() {
        let term = |t: &QTerm| -> cqa_asp::TermSpec {
            match t {
                QTerm::Var(v) => tv(cq.var_names[*v as usize].clone()),
                QTerm::Const(c) => tc(*c),
            }
        };
        let mut body: Vec<BodyLit> = Vec::new();
        for a in &cq.pos {
            body.push(pos(atom(
                annotated(schema.relation(a.rel).name(), "tss"),
                a.terms.iter().map(&term),
            )));
        }
        for a in &cq.neg {
            body.push(neg(atom(
                annotated(schema.relation(a.rel).name(), "tss"),
                a.terms.iter().map(&term),
            )));
        }
        for b in &cq.builtins {
            body.push(cmp(term(&b.lhs), to_asp_op(b.op), term(&b.rhs)));
        }
        let head_terms: Vec<cqa_asp::TermSpec> = cq
            .head
            .iter()
            .map(|v| tv(cq.var_names[*v as usize].clone()))
            .collect();
        state.add_rule([atom(ans_pred, head_terms)], body)?;
        if state.is_poisoned() {
            return Err(CoreError::Interrupted {
                phase: InterruptPhase::Grounding,
                partial: 0,
            });
        }
    }
    let gp = state.ground_program();
    let cautious = cqa_asp::cautious_consequences_cancellable(gp, cancel)
        .map_err(|e| match e {
            AspError::Interrupted { partial, .. } => CoreError::Interrupted {
                phase: InterruptPhase::ModelEnumeration,
                partial,
            },
            other => CoreError::Asp(other),
        })?
        .ok_or(CoreError::NoStableModels)?;
    let Some(ans_id) = state.program().pred_id(ans_pred) else {
        // Query predicate never derivable: no answers.
        return Ok(AnswerSet {
            tuples: BTreeSet::new(),
            arity: query.arity(),
        });
    };
    let mut tuples: BTreeSet<Tuple> = BTreeSet::new();
    for &aid in &cautious {
        let ga = gp.atom(aid);
        if ga.pred == ans_id {
            tuples.insert(Tuple::new(ga.args.iter().cloned()));
        }
    }
    if semantics == AnswerSemantics::ExcludeNullAnswers {
        tuples.retain(|t| !t.has_null());
    }
    Ok(AnswerSet {
        tuples,
        arity: query.arity(),
    })
}

fn to_asp_op(op: cqa_constraints::CmpOp) -> BuiltinOp {
    match op {
        cqa_constraints::CmpOp::Eq => BuiltinOp::Eq,
        cqa_constraints::CmpOp::Neq => BuiltinOp::Neq,
        cqa_constraints::CmpOp::Lt => BuiltinOp::Lt,
        cqa_constraints::CmpOp::Leq => BuiltinOp::Leq,
        cqa_constraints::CmpOp::Gt => BuiltinOp::Gt,
        cqa_constraints::CmpOp::Geq => BuiltinOp::Geq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{qc, qv, ConjunctiveQuery};
    use cqa_constraints::{builders, v, Constraint, Ic};
    use cqa_relational::{null, s, Schema, Value};
    use std::sync::Arc;

    fn example19() -> (Arc<Schema>, Instance, IcSet) {
        let sc = Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U", "V"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [s("a"), s("c")]).unwrap();
        d.insert_named("S", [s("e"), s("f")]).unwrap();
        d.insert_named("S", [null(), s("a")]).unwrap();
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        ics.push(builders::not_null(&sc, "R", 0).unwrap());
        (sc, d, ics)
    }

    fn both_engines(
        sc: &Arc<Schema>,
        d: &Instance,
        ics: &IcSet,
        q: &Query,
    ) -> (AnswerSet, AnswerSet) {
        let _ = sc;
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
        (direct, via_program)
    }

    #[test]
    fn example19_consistent_answers() {
        let (sc, d, ics) = example19();
        // Q(x): S(_, x) — S tuples survive in every repair.
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["v"])
            .atom("S", [qv("u"), qv("v")])
            .finish()
            .unwrap()
            .into();
        let (direct, via_program) = both_engines(&sc, &d, &ics, &q);
        assert_eq!(direct, via_program);
        // S(null,a) is in all four repairs; S(e,f) is deleted in two.
        assert_eq!(direct.tuples, BTreeSet::from([Tuple::new(vec![s("a")])]));

        // Q(x): R(x, y) — R(a, …) survives in every repair (with b or c),
        // so x = a is consistent.
        let q2: Query = ConjunctiveQuery::builder(&sc, "q2", ["x"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into();
        let (direct2, via_program2) = both_engines(&sc, &d, &ics, &q2);
        assert_eq!(direct2, via_program2);
        assert_eq!(direct2.tuples, BTreeSet::from([Tuple::new(vec![s("a")])]));

        // Q(x,y): R(x,y) — no single R row is in every repair.
        let q3: Query = ConjunctiveQuery::builder(&sc, "q3", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into();
        let (direct3, via_program3) = both_engines(&sc, &d, &ics, &q3);
        assert_eq!(direct3, via_program3);
        assert!(direct3.is_empty());
    }

    #[test]
    fn boolean_queries() {
        let (sc, d, ics) = example19();
        // ∃x S(x, 'a')? — true in every repair.
        let yes: Query = ConjunctiveQuery::builder(&sc, "yes", Vec::<String>::new())
            .atom("S", [qv("x"), qc(s("a"))])
            .finish()
            .unwrap()
            .into();
        let (direct, via_program) = both_engines(&sc, &d, &ics, &yes);
        assert_eq!(direct, via_program);
        assert!(direct.is_yes());

        // ∃x S(x, 'f')? — S(e,f) is deleted in two repairs: no.
        let no: Query = ConjunctiveQuery::builder(&sc, "no", Vec::<String>::new())
            .atom("S", [qv("x"), qc(s("f"))])
            .finish()
            .unwrap()
            .into();
        let (direct2, via_program2) = both_engines(&sc, &d, &ics, &no);
        assert_eq!(direct2, via_program2);
        assert!(!direct2.is_yes());
    }

    #[test]
    fn negation_in_queries() {
        let (sc, d, ics) = example19();
        // Q(u): S(u, v) ∧ ¬R(v, v)… use a simpler shape: S(u,v), not R(v,b).
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["u"])
            .atom("S", [qv("u"), qv("vv")])
            .not_atom("R", [qv("vv"), qv("vv")])
            .finish()
            .unwrap()
            .into();
        let (direct, via_program) = both_engines(&sc, &d, &ics, &q);
        assert_eq!(direct, via_program);
    }

    #[test]
    fn union_queries_agree() {
        let (sc, d, ics) = example19();
        let q1 = ConjunctiveQuery::builder(&sc, "q1", ["x"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap();
        let q2 = ConjunctiveQuery::builder(&sc, "q2", ["x"])
            .atom("S", [qv("y"), qv("x")])
            .finish()
            .unwrap();
        let q = Query::union(vec![q1, q2]).unwrap();
        let (direct, via_program) = both_engines(&sc, &d, &ics, &q);
        assert_eq!(direct, via_program);
        // a from both branches; f not (S(e,f) deleted in some repairs).
        assert!(direct.tuples.contains(&Tuple::new(vec![s("a")])));
        assert!(!direct.tuples.contains(&Tuple::new(vec![s("f")])));
    }

    #[test]
    fn exclude_null_answers_mode() {
        let sc = Schema::builder()
            .relation("S", ["U", "V"])
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("S", [s("u"), s("a")]).unwrap();
        let mut ics = IcSet::default();
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        // Q(y): R(x, y) — in the insertion repair R(a,null) exists, but the
        // deletion repair has no R at all → no consistent answers anyway.
        // Use brave-ish shape instead: query S to see null filtering:
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["u", "v"])
            .atom("S", [qv("u"), qv("v")])
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
        assert!(with_nulls.is_empty()); // S(u,a) deleted in one repair

        // Make S consistent and null-valued:
        let mut d2 = Instance::empty(sc.clone());
        d2.insert_named("S", [null(), s("a")]).unwrap();
        d2.insert_named("R", [s("a"), s("b")]).unwrap();
        let incl = consistent_answers(
            &d2,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(incl.len(), 1);
        let excl = consistent_answers(
            &d2,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::ExcludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert!(excl.is_empty());
    }

    #[test]
    fn consistent_database_cqa_equals_plain_evaluation() {
        let sc = Schema::builder()
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [s("c"), s("d")]).unwrap();
        let ic = Ic::builder(&sc, "trivial")
            .body_atom("R", [v("x"), v("y")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into();
        let direct = consistent_answers(
            &d,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(direct.tuples, q.eval(&d));
        let via_program = consistent_answers_via_program(
            &d,
            &ics,
            &q,
            ProgramStyle::Corrected,
            AnswerSemantics::IncludeNullAnswers,
        )
        .unwrap();
        assert_eq!(via_program.tuples, q.eval(&d));
    }

    #[test]
    fn sql_three_valued_query_semantics_in_cqa() {
        // A consistent DB whose repair contains an introduced null: the
        // null row is an answer under null-as-value, not under SQL mode.
        let sc = Schema::builder()
            .relation("S", ["U", "V"])
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("S", [s("u"), s("a")]).unwrap();
        d.insert_named("R", [s("a"), null()]).unwrap();
        let mut ics = IcSet::default();
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        // Query: pairs (x, y) in R with y = y (trivial) — as-value keeps
        // the null row; SQL three-valued mode needs an actual test, so
        // compare y against itself via a builtin:
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .cmp(qv("y"), cqa_constraints::CmpOp::Eq, qv("y"))
            .finish()
            .unwrap()
            .into();
        let as_value = consistent_answers(
            &d,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(as_value.len(), 1);
        let sql_mode = consistent_answers(
            &d,
            &ics,
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::SqlThreeValued,
        )
        .unwrap();
        assert!(sql_mode.is_empty()); // null = null is unknown in SQL
    }

    #[test]
    fn a_trip_during_evaluation_reports_the_repairs_intersected() {
        // 3 key conflicts give 8 repairs; a 3-way self-join of R on its
        // value column (40³ answers) makes each evaluation outlast the
        // search, so a deadline lands in evaluation.
        use crate::engine::{repairs, SearchStrategy};
        use crate::error::InterruptPhase;
        let sc = Schema::builder()
            .relation("R", ["k", "v"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        for k in 0..40 {
            d.insert_named("R", [Value::Int(k), s("a")]).unwrap();
        }
        for k in 0..3 {
            d.insert_named("R", [Value::Int(k), s("b")]).unwrap();
        }
        let ics = IcSet::new([builders::functional_dependency(&sc, "R", &[0], 1)
            .unwrap()
            .into()]);
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["x", "y", "z"])
            .atom("R", [qv("x"), qv("u")])
            .atom("R", [qv("y"), qv("u")])
            .atom("R", [qv("z"), qv("u")])
            .finish()
            .unwrap()
            .into();
        let count = repairs(&d, &ics, RepairConfig::default()).unwrap().len();
        assert_eq!(count, 8);
        for strategy in [
            SearchStrategy::Incremental,
            SearchStrategy::Parallel { threads: 4 },
        ] {
            let config = RepairConfig {
                strategy,
                ..RepairConfig::default()
            };
            // Double the deadline until one passes the search; the first
            // such deadline trips during evaluation.
            let mut tripped_in_evaluation = false;
            for ms in (0..10).map(|k| 1u64 << k) {
                let token = CancelToken::with_timeout(std::time::Duration::from_millis(ms));
                match consistent_answers_enumerated_governed(
                    &d,
                    &ics,
                    &q,
                    config,
                    AnswerSemantics::IncludeNullAnswers,
                    QueryNullSemantics::NullAsValue,
                    &CqaCaches::new(),
                    &token,
                ) {
                    Err(CoreError::Interrupted {
                        phase: InterruptPhase::RepairSearch,
                        ..
                    }) => continue,
                    Err(CoreError::Interrupted {
                        phase: InterruptPhase::QueryEvaluation,
                        partial,
                    }) => {
                        assert!(
                            partial < count,
                            "{strategy:?}: partial {partial} of {count}"
                        );
                        tripped_in_evaluation = true;
                        break;
                    }
                    other => panic!("{strategy:?}, {ms} ms: {other:?}"),
                }
            }
            assert!(
                tripped_in_evaluation,
                "{strategy:?}: no deadline hit evaluation"
            );
        }
    }

    #[test]
    fn builtins_in_cqa_queries() {
        let (sc, d, ics) = example19();
        let q: Query = ConjunctiveQuery::builder(&sc, "q", ["v"])
            .atom("S", [qv("u"), qv("v")])
            .cmp(qv("v"), cqa_constraints::CmpOp::Neq, qc(Value::str("f")))
            .finish()
            .unwrap()
            .into();
        let (direct, via_program) = both_engines(&sc, &d, &ics, &q);
        assert_eq!(direct, via_program);
        assert_eq!(direct.tuples, BTreeSet::from([Tuple::new(vec![s("a")])]));
    }
}
