//! # Planner architecture
//!
//! Consistent query answering by repair enumeration is exponential in the
//! number of conflicts. For large `(IcSet, query)` classes the consistent
//! answers are computable *directly* on the inconsistent instance in
//! polynomial time, and this module is the dispatcher that recognises
//! those classes and routes each request to the cheapest sound engine:
//!
//! 1. **FO-rewrite** ([`crate::rewrite`]) — key-style functional
//!    dependencies (plus NOT NULL constraints) with quantifier-free
//!    conjunctive queries. Fuxman/Miller-style: every candidate answer is
//!    guarded by "no key-conflicting tuple disagrees on a used non-key
//!    position", evaluated once on the inconsistent instance with one
//!    index probe on the FD's determinant per (tuple, FD).
//! 2. **Chase fast path** ([`crate::chase`]) — arbitrary *deletion-only*
//!    constraint sets (denials, multi-row checks, FDs, NOT NULL) with the
//!    same query class. In the style of Laurent & Spyratos
//!    (arXiv 2301.03668) every tuple is classified as *true* (in every
//!    repair), *false* (in no repair) or *uncertain* by a polynomial pass
//!    over the violation hypergraph, and the query is answered from that
//!    classification.
//! 3. **Fallback** — everything else keeps the existing repair-enumeration
//!    route ([`crate::cqa::consistent_answers_enumerated_governed`]) or
//!    the logic-program route, unchanged.
//!
//! ## Decision table
//!
//! | Constraint set | Query | Repair semantics | Route |
//! |---|---|---|---|
//! | key FDs + NOT NULL only ([`PlanClass::KeyFdOnly`]) | single quantifier-free CQ | `NullBased` | **FO-rewrite** |
//! | head-empty ICs + NOT NULL ([`PlanClass::DeletionOnly`]) | single quantifier-free CQ | `NullBased` | **Chase** |
//! | any IC with head atoms ([`PlanClass::General`]) | — | — | enumerate |
//! | — | union of ≥ 2 disjuncts | — | enumerate |
//! | — | CQ with non-head (existential) variables | — | enumerate |
//! | — | — | `DeletionPreferring` | enumerate |
//!
//! ## Why each route is sound
//!
//! For a *head-empty* constraint set (no IC can force an insertion) every
//! repair is a deletion repair, and under `≤_D` the repairs are exactly
//! the **maximal independent sets** of the violation hypergraph whose
//! edges are the ground violation witnesses (`violations(D)`): violations
//! of any `D' ⊆ D` are exactly the edges contained in `D'`, because a
//! head-empty ground violation mentions only its own body atoms. From
//! maximal-independent-set structure:
//!
//! * a tuple is in **no** repair iff it forms a singleton edge (a NOT
//!   NULL violation, or a single-tuple denial/check violation) — set `F`;
//! * a tuple `t` is in **every** repair iff no edge `e ∋ t` has `e \ {t}`
//!   independent (no member of `e \ {t}` is in `F` and no other edge is
//!   contained in `e \ {t}`): such an `e \ {t}` extends to a maximal
//!   independent set that must exclude `t`, and conversely a maximal
//!   independent set missing `t` must contain such an `e \ {t}`.
//!
//! A **quantifier-free** CQ (every variable appears in the head) factors
//! through single tuples: an answer binding fully grounds every atom, so
//! the binding is consistent iff its builtins hold, every positive ground
//! tuple is in every repair, and every negated ground atom is in no
//! repair (absent from `D`, or in `F` — evaluating negation against `D`
//! alone would be wrong exactly when `F` is non-empty). Under
//! [`QueryNullSemantics::SqlThreeValued`] a ground atom containing `null`
//! never matches any tuple, so a null-carrying negated atom passes
//! trivially; positive matches still pin exact tuples because first
//! occurrences bind tuple values verbatim. Candidate bindings are
//! complete when enumerated on `D` because repairs are subsets of `D`.
//!
//! The FO-rewrite route is the same argument specialised to FD edges
//! (always size 2): `t` is sure iff it is no NOT-NULL violator and every
//! key-conflicting partner is itself in `F`. The FD conflict test under
//! `|=_N` requires the shared determinant values and *both* dependent
//! values non-null — those positions are exactly the FD's escape
//! variables (Definition 4), so a null anywhere in them escapes the
//! constraint and creates no edge.
//!
//! ## Why each refusal is necessary
//!
//! * **Unions** — per-disjunct fast-path answers under-approximate: with
//!   `D = {R(a,b), R(a,c)}` under the key FD `R[0]→1`, the union
//!   `q(x) ← R(x,'b') ∨ R(x,'c')` has consistent answer `a` (each repair
//!   satisfies one disjunct) yet neither disjunct alone has any.
//! * **Existential variables** — a binding no longer pins its witnesses;
//!   different repairs may satisfy the query through different tuples, so
//!   the per-tuple factorisation (and the whole polynomial argument —
//!   CQA is coNP-complete in general) breaks.
//! * **Head atoms (RICs/UICs)** — insertion repairs exist; repairs are no
//!   longer subsets of `D` and the independent-set characterisation is
//!   unsound.
//! * **`RepairSemantics::DeletionPreferring`** — `Rep_d` changes which
//!   repairs exist; the fast paths model the default `≤_D` semantics.
//!
//! Resource-limit semantics differ by design: the fast paths never
//! consult [`RepairConfig::node_budget`] (they build no repair tree) but
//! do poll the cancellation token, surfacing
//! [`CoreError::Interrupted`] with `phase = QueryEvaluation`.
//!
//! The planner runs automatically inside `consistent_answers*`; callers
//! that need enumeration-backed answers regardless (the oracle tests) use
//! [`crate::cqa::consistent_answers_enumerated`]. The route taken is
//! observable through [`PlannerStats`] (the `Database` facade exposes it
//! as `planner_stats()`), and [`plan_query`] is public so a caller can
//! inspect the routing decision — with the reasons for a refusal —
//! without running the query.

use crate::cache::CqaCaches;
use crate::chase::ChaseClassification;
use crate::cqa::AnswerSet;
use crate::engine::{RepairConfig, RepairSemantics};
use crate::error::{CoreError, InterruptPhase};
use crate::query::{AnswerSemantics, ConjunctiveQuery, QAtom, QTerm, Query, QueryNullSemantics};
use crate::rewrite::RewriteOracle;
use cqa_constraints::{plan_class, IcSet, PlanClass};
use cqa_relational::{CancelToken, DatabaseAtom, Instance, RelId, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The engine a request is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRoute {
    /// Fuxman/Miller-style guarded evaluation, once, on the inconsistent
    /// instance (key FDs + NOT NULL, quantifier-free CQ).
    FoRewrite,
    /// Laurent–Spyratos-style true/false-tuple classification over the
    /// violation hypergraph (any deletion-only set, quantifier-free CQ).
    Chase,
    /// Repair enumeration (or the program route) — the sound fallback.
    Enumerate,
}

/// Why the planner refused a fast path (each is a soundness requirement,
/// not a heuristic — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// `RepairSemantics::DeletionPreferring` changes the repair set.
    NonDefaultRepairSemantics,
    /// Unions need cross-disjunct compensation between repairs.
    UnionQuery,
    /// A non-head variable breaks the per-tuple factorisation.
    ExistentialQueryVars,
    /// An IC with head atoms admits insertion repairs.
    HeadedConstraints,
}

/// The routing decision for one `(IcSet, query, config)` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The engine the request is routed to.
    pub route: PlanRoute,
    /// Refusal reasons; non-empty exactly when `route` is
    /// [`PlanRoute::Enumerate`].
    pub declined: Vec<DeclineReason>,
}

/// Classify one request against the decision table (pure analysis — no
/// data is touched, so the decision is O(constraints + query)).
pub fn plan_query(ics: &IcSet, query: &Query, config: &RepairConfig) -> QueryPlan {
    let mut declined = Vec::new();
    if config.semantics != RepairSemantics::NullBased {
        declined.push(DeclineReason::NonDefaultRepairSemantics);
    }
    if query.disjuncts().len() > 1 {
        declined.push(DeclineReason::UnionQuery);
    }
    if query.disjuncts().iter().any(|cq| !is_quantifier_free(cq)) {
        declined.push(DeclineReason::ExistentialQueryVars);
    }
    let class = plan_class(ics);
    if class == PlanClass::General {
        declined.push(DeclineReason::HeadedConstraints);
    }
    let route = if !declined.is_empty() {
        PlanRoute::Enumerate
    } else if class == PlanClass::KeyFdOnly {
        PlanRoute::FoRewrite
    } else {
        PlanRoute::Chase
    };
    QueryPlan { route, declined }
}

/// Every variable of the query appears in its head (so an answer binding
/// grounds the whole body).
fn is_quantifier_free(cq: &ConjunctiveQuery) -> bool {
    let mut in_head = vec![false; cq.var_names.len()];
    for v in &cq.head {
        in_head[*v as usize] = true;
    }
    let term_ok = |t: &QTerm| match t {
        QTerm::Var(v) => in_head[*v as usize],
        QTerm::Const(_) => true,
    };
    cq.pos
        .iter()
        .chain(cq.neg.iter())
        .all(|a| a.terms.iter().all(term_ok))
        && cq
            .builtins
            .iter()
            .all(|b| term_ok(&b.lhs) && term_ok(&b.rhs))
}

/// What both fast-path engines must answer about a ground tuple: is it in
/// *every* repair, and is it in *no* repair?
pub(crate) trait TupleOracle {
    /// Is the tuple (a member of `D`) in every repair?
    fn sure(&self, rel: RelId, values: &[Value]) -> bool;
    /// Is the tuple (a member of `D`) in no repair?
    fn in_no_repair(&self, rel: RelId, values: &[Value]) -> bool;
}

/// Plan the request; when a fast path applies, answer it there and return
/// `Some`. `None` means "enumerate" — the caller falls through to the
/// repair-enumeration body unchanged. Either way the route is recorded in
/// the cache bundle's [`PlannerCounters`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    d: &Instance,
    ics: &IcSet,
    query: &Query,
    config: &RepairConfig,
    semantics: AnswerSemantics,
    query_semantics: QueryNullSemantics,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Option<AnswerSet>, CoreError> {
    let plan = plan_query(ics, query, config);
    caches.planner.record(plan.route);
    if plan.route == PlanRoute::Enumerate {
        return Ok(None);
    }
    let cq = &query.disjuncts()[0];
    let mut tuples = match plan.route {
        PlanRoute::FoRewrite => {
            let oracle = RewriteOracle::new(d, ics);
            eval_fast(cq, d, query_semantics, &oracle, cancel)?
        }
        PlanRoute::Chase => {
            let oracle = ChaseClassification::classify(d, ics, caches, cancel)?;
            eval_fast(cq, d, query_semantics, &oracle, cancel)?
        }
        PlanRoute::Enumerate => unreachable!("handled above"),
    };
    if semantics == AnswerSemantics::ExcludeNullAnswers {
        tuples.retain(|t| !t.has_null());
    }
    Ok(Some(AnswerSet {
        tuples,
        arity: query.arity(),
    }))
}

/// Poll the cancel token once per this many candidate bindings.
const CANCEL_STRIDE: usize = 1024;

/// The shared fast-path evaluator: enumerate candidate bindings of the
/// positive body on the inconsistent instance, then replace the classical
/// positive/negative membership tests with the oracle's repair-aware
/// ones. See the module docs for why this factorisation is exact for
/// quantifier-free queries over deletion-only constraint sets.
///
/// The candidates come from `for_each_match`, which joins by index
/// probes over `d` and builds each probed index on first use: `d` is the
/// caller's instance, so a point read pays one probe, and the index stays
/// registered (and maintained on writes) for the next read.
fn eval_fast(
    cq: &ConjunctiveQuery,
    d: &Instance,
    mode: QueryNullSemantics,
    oracle: &dyn TupleOracle,
    cancel: &CancelToken,
) -> Result<BTreeSet<Tuple>, CoreError> {
    let mut out = BTreeSet::new();
    let mut seen = 0usize;
    let mut tripped = false;
    cq.for_each_match(d, mode, &mut |bindings| {
        seen += 1;
        if seen.is_multiple_of(CANCEL_STRIDE) && cancel.is_cancelled() {
            tripped = true;
            return false;
        }
        // Every positive ground tuple must be in every repair.
        for a in &cq.pos {
            let vals = ground_atom(a, bindings);
            if !oracle.sure(a.rel, &vals) {
                return true;
            }
        }
        // Every negated ground atom must be in no repair.
        for n in &cq.neg {
            let vals = ground_atom(n, bindings);
            if mode == QueryNullSemantics::SqlThreeValued && vals.iter().any(Value::is_null) {
                // A null never tests equal in SQL mode: the atom cannot
                // match in any repair.
                continue;
            }
            let atom = DatabaseAtom::new(n.rel, Tuple::new(vals));
            if !d.contains(&atom) {
                continue; // repairs are subsets of D
            }
            if !oracle.in_no_repair(n.rel, atom.tuple.values()) {
                return true;
            }
        }
        out.insert(
            cq.head
                .iter()
                .map(|v| bindings[*v as usize].expect("safe head var"))
                .collect(),
        );
        true
    });
    if tripped {
        return Err(CoreError::Interrupted {
            phase: InterruptPhase::QueryEvaluation,
            partial: out.len(),
        });
    }
    Ok(out)
}

/// Ground one atom under a (complete, quantifier-free) binding.
fn ground_atom(atom: &QAtom, bindings: &[Option<Value>]) -> Vec<Value> {
    atom.terms
        .iter()
        .map(|t| match t {
            QTerm::Const(c) => *c,
            QTerm::Var(v) => bindings[*v as usize].expect("quantifier-free binding"),
        })
        .collect()
}

/// Lifetime routing counters of one cache bundle, in the same
/// named-struct shape as the other stats ([`PlannerStats`] is the
/// snapshot). Lives on [`CqaCaches`] so the facade's per-tenant bundles
/// each see their own traffic.
#[derive(Debug, Default)]
pub struct PlannerCounters {
    fo_rewrite: AtomicU64,
    chase: AtomicU64,
    fallbacks: AtomicU64,
    /// 0 = no query planned yet, else `PlanRoute` discriminant + 1.
    last_route: AtomicU8,
}

impl PlannerCounters {
    pub(crate) fn record(&self, route: PlanRoute) {
        let (counter, tag) = match route {
            PlanRoute::FoRewrite => (&self.fo_rewrite, 1),
            PlanRoute::Chase => (&self.chase, 2),
            PlanRoute::Enumerate => (&self.fallbacks, 3),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.last_route.store(tag, Ordering::Relaxed);
    }

    /// Snapshot of the counters. Meaningful as before/after deltas.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            fo_rewrite: self.fo_rewrite.load(Ordering::Relaxed),
            chase: self.chase.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            last_route: match self.last_route.load(Ordering::Relaxed) {
                1 => Some(PlanRoute::FoRewrite),
                2 => Some(PlanRoute::Chase),
                3 => Some(PlanRoute::Enumerate),
                _ => None,
            },
        }
    }
}

/// Snapshot of one bundle's planner counters (PR-8 stats idiom — compare
/// before/after a call to see which engine answered it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Requests answered by the FO-rewrite route.
    pub fo_rewrite: u64,
    /// Requests answered by the chase fast path.
    pub chase: u64,
    /// Requests declined to the enumeration/program fallback.
    pub fallbacks: u64,
    /// The route of the most recently planned request.
    pub last_route: Option<PlanRoute>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{qc, qv};
    use cqa_constraints::{builders, v, Ic};
    use cqa_relational::{s, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U"])
            .finish()
            .unwrap()
            .into_shared()
    }

    fn key_fd(sc: &Arc<Schema>) -> IcSet {
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(sc, "R", &[0], 1).unwrap());
        ics
    }

    #[test]
    fn routes_follow_the_decision_table() {
        let sc = schema();
        let qf: Query = ConjunctiveQuery::builder(&sc, "q", ["x", "y"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into();
        let config = RepairConfig::default();

        // Key FDs + quantifier-free query → FO-rewrite.
        let plan = plan_query(&key_fd(&sc), &qf, &config);
        assert_eq!(plan.route, PlanRoute::FoRewrite);
        assert!(plan.declined.is_empty());

        // Adding a denial keeps it deletion-only → chase.
        let mut del = key_fd(&sc);
        del.push(
            Ic::builder(&sc, "d")
                .body_atom("R", [v("x"), v("x")])
                .finish()
                .unwrap(),
        );
        assert_eq!(plan_query(&del, &qf, &config).route, PlanRoute::Chase);

        // A RIC forces enumeration.
        let mut general = key_fd(&sc);
        general.push(
            Ic::builder(&sc, "ric")
                .body_atom("S", [v("u")])
                .head_atom("R", [v("u"), v("w")])
                .finish()
                .unwrap(),
        );
        let plan = plan_query(&general, &qf, &config);
        assert_eq!(plan.route, PlanRoute::Enumerate);
        assert_eq!(plan.declined, vec![DeclineReason::HeadedConstraints]);

        // An existential query variable forces enumeration.
        let existential: Query = ConjunctiveQuery::builder(&sc, "e", ["x"])
            .atom("R", [qv("x"), qv("y")])
            .finish()
            .unwrap()
            .into();
        let plan = plan_query(&key_fd(&sc), &existential, &config);
        assert_eq!(plan.route, PlanRoute::Enumerate);
        assert_eq!(plan.declined, vec![DeclineReason::ExistentialQueryVars]);

        // A union forces enumeration.
        let d1 = ConjunctiveQuery::builder(&sc, "d1", ["x"])
            .atom("R", [qv("x"), qc(s("b"))])
            .finish()
            .unwrap();
        let d2 = ConjunctiveQuery::builder(&sc, "d2", ["x"])
            .atom("R", [qv("x"), qc(s("c"))])
            .finish()
            .unwrap();
        let union = Query::union(vec![d1, d2]).unwrap();
        let plan = plan_query(&key_fd(&sc), &union, &config);
        assert_eq!(plan.route, PlanRoute::Enumerate);
        assert!(plan.declined.contains(&DeclineReason::UnionQuery));

        // Non-default repair semantics forces enumeration.
        let deletion_preferring = RepairConfig {
            semantics: crate::engine::RepairSemantics::DeletionPreferring,
            ..RepairConfig::default()
        };
        let plan = plan_query(&key_fd(&sc), &qf, &deletion_preferring);
        assert_eq!(plan.route, PlanRoute::Enumerate);
        assert_eq!(
            plan.declined,
            vec![DeclineReason::NonDefaultRepairSemantics]
        );

        // The empty constraint set is trivially key-FD-only: evaluate once.
        assert_eq!(
            plan_query(&IcSet::default(), &qf, &config).route,
            PlanRoute::FoRewrite
        );

        // Constants and head variables are fine; a builtin-only variable
        // is not quantifier-free... but builtins can only use bound vars,
        // so a ground boolean query stays dispatchable.
        let ground_bool: Query = ConjunctiveQuery::builder(&sc, "b", Vec::<String>::new())
            .atom("R", [qc(s("a")), qc(s("b"))])
            .finish()
            .unwrap()
            .into();
        assert_eq!(
            plan_query(&key_fd(&sc), &ground_bool, &config).route,
            PlanRoute::FoRewrite
        );
    }

    #[test]
    fn union_refusal_is_necessary() {
        // The worked counterexample from the module docs: each repair
        // satisfies one disjunct, so the union has a consistent answer
        // that no per-disjunct fast path could produce.
        let sc = schema();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [s("a"), s("c")]).unwrap();
        let ics = key_fd(&sc);
        let d1 = ConjunctiveQuery::builder(&sc, "d1", ["x"])
            .atom("R", [qv("x"), qc(s("b"))])
            .finish()
            .unwrap();
        let d2 = ConjunctiveQuery::builder(&sc, "d2", ["x"])
            .atom("R", [qv("x"), qc(s("c"))])
            .finish()
            .unwrap();
        let union = Query::union(vec![d1.clone(), d2.clone()]).unwrap();
        let union_answers = crate::cqa::consistent_answers(
            &d,
            &ics,
            &union,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
        )
        .unwrap();
        assert_eq!(
            union_answers.tuples,
            BTreeSet::from([Tuple::new(vec![s("a")])])
        );
        for cq in [d1, d2] {
            let alone = crate::cqa::consistent_answers(
                &d,
                &ics,
                &cq.into(),
                RepairConfig::default(),
                AnswerSemantics::IncludeNullAnswers,
                QueryNullSemantics::NullAsValue,
            )
            .unwrap();
            assert!(alone.is_empty());
        }
    }

    #[test]
    fn planner_stats_record_routes() {
        let caches = CqaCaches::new();
        assert_eq!(caches.planner.stats(), PlannerStats::default());
        caches.planner.record(PlanRoute::FoRewrite);
        caches.planner.record(PlanRoute::Chase);
        caches.planner.record(PlanRoute::Chase);
        caches.planner.record(PlanRoute::Enumerate);
        let stats = caches.planner.stats();
        assert_eq!(stats.fo_rewrite, 1);
        assert_eq!(stats.chase, 2);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.last_route, Some(PlanRoute::Enumerate));
    }
}
