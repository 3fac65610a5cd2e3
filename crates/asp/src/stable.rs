//! Stable models of ground disjunctive programs (Gelfond–Lifschitz), with
//! cautious/brave reasoning.
//!
//! Enumeration strategy: encode the program as CNF —
//!
//! 1. **Rule clauses**: `head ∨ ¬pos ∨ neg` for every rule;
//! 2. **Support clauses**: for every rule `r` and head atom `a`, an
//!    auxiliary variable `s(r,a)` with `s(r,a) ↔ (pos(r) ∧ ¬neg(r) ∧
//!    ¬(head(r) ∖ {a}))`, and for every atom `a` the clause
//!    `a → ∨ s(r,a)`. Every stable model of a disjunctive program is a
//!    *supported* model in this sense (each true atom has a rule whose
//!    body holds and whose other head atoms are false), so the encoding
//!    prunes the exponential space of unsupported guesses while keeping
//!    all stable models.
//!
//! Each supported model `M` is then checked stable: build the GL-reduct
//! `Π^M` (drop rules with `neg ∩ M ≠ ∅`, then drop negative literals) and
//! test that `M` is a *minimal* model of it. Minimality of a model of a
//! positive disjunctive program is itself coNP, decided here by a second,
//! small CNF search for a strictly smaller model within `M`; for normal
//! (non-disjunctive) programs the least-model fixpoint decides it in
//! polynomial time — the complexity gap of the paper's Section 6 made
//! concrete.
//!
//! Cautious reasoning ([`cautious_consequences_cancellable`]) does not
//! enumerate whole-program models: it intersects each atom-disjoint
//! component's models on their own, the splitting [`crate::resolve`]
//! already applies to repairs. Π(D, IC) splits into one small component
//! per conflict and per clean fact (unless query rules join them), so `k`
//! independent binary conflicts cost `2k` component models instead of
//! `2^k` whole-program models.

use crate::error::AspError;
use crate::ground::{AtomId, GroundProgram, GroundRule};
use crate::resolve::{partition_rules, solve_partition};
use crate::solve::{Cnf, Lit};
use cqa_relational::{CancelToken, Cancelled};
use std::collections::{BTreeSet, VecDeque};
use std::ops::ControlFlow;

/// A model: the set of true atoms.
pub type Model = BTreeSet<AtomId>;

/// Warm-start heuristics chained across successive minimality
/// sub-searches: saved phases and variable activities from the previous
/// search seed the next one. Seeding is zip-truncated, so consecutive
/// CNFs of different sizes are fine; it can only re-order the search,
/// never change a verdict.
#[derive(Debug, Default, Clone)]
pub(crate) struct Warm {
    pub phases: Vec<bool>,
    pub acts: Vec<u64>,
}

/// Enumerate the stable models, calling `f` for each; `Break` stops early.
pub fn for_each_stable_model<B>(
    gp: &GroundProgram,
    f: impl FnMut(&Model) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for_each_stable_model_cancellable(gp, &CancelToken::never(), f)
        .expect("never-token enumeration cannot be cancelled")
}

/// [`for_each_stable_model`] under a cancellation token. Both the
/// supported-model CDCL enumeration and every coNP minimality sub-search
/// poll the token; models delivered before `Err(Cancelled)` are genuine
/// stable models (the sound prefix of the full enumeration).
pub fn for_each_stable_model_cancellable<B>(
    gp: &GroundProgram,
    cancel: &CancelToken,
    mut f: impl FnMut(&Model) -> ControlFlow<B>,
) -> Result<ControlFlow<B>, Cancelled> {
    let n = gp.atom_count();
    let cnf = encode(gp);
    // Phases/activities learned in one minimality search seed the next:
    // consecutive candidate models of the same program yield near-identical
    // sub-formulas, so the chained heuristics amortise across the run.
    let mut warm = Warm::default();
    // Cancellation inside the per-model stability check must abort the
    // whole enumeration: smuggle it through the break value.
    let flow = cnf.for_each_model_cancellable(n, cancel, |assignment| {
        let model: Model = (0..n as AtomId)
            .filter(|&a| assignment[a as usize])
            .collect();
        match is_stable_warm(&gp.rules, &model, Some(&mut warm), cancel) {
            Err(c) => ControlFlow::Break(Err(c)),
            Ok(false) => ControlFlow::Continue(()),
            Ok(true) => match f(&model) {
                ControlFlow::Break(b) => ControlFlow::Break(Ok(b)),
                ControlFlow::Continue(()) => ControlFlow::Continue(()),
            },
        }
    })?;
    match flow {
        ControlFlow::Continue(()) => Ok(ControlFlow::Continue(())),
        ControlFlow::Break(Ok(b)) => Ok(ControlFlow::Break(b)),
        ControlFlow::Break(Err(c)) => Err(c),
    }
}

/// All stable models, sorted (deterministic order independent of the
/// solver's branching order).
pub fn stable_models(gp: &GroundProgram) -> Vec<Model> {
    stable_models_cancellable(gp, &CancelToken::never())
        .expect("never-token enumeration cannot be interrupted")
}

/// [`stable_models`] under a cancellation token. On interruption returns
/// [`AspError::Interrupted`] whose `partial` counts the stable models
/// fully enumerated and checked before the token tripped.
pub fn stable_models_cancellable(
    gp: &GroundProgram,
    cancel: &CancelToken,
) -> Result<Vec<Model>, AspError> {
    let mut out = Vec::new();
    let res = for_each_stable_model_cancellable(gp, cancel, |m| {
        out.push(m.clone());
        ControlFlow::<()>::Continue(())
    });
    match res {
        Ok(_) => {
            out.sort();
            Ok(out)
        }
        Err(Cancelled) => Err(AspError::Interrupted {
            phase: "stable-model enumeration",
            partial: out.len(),
        }),
    }
}

/// Cautious consequences: atoms true in *every* stable model.
/// `None` if the program has no stable models (everything follows).
pub fn cautious_consequences(gp: &GroundProgram) -> Option<Model> {
    cautious_consequences_cancellable(gp, &CancelToken::never())
        .expect("never-token enumeration cannot be interrupted")
}

/// [`cautious_consequences`] under a cancellation token. On interruption
/// returns [`AspError::Interrupted`] whose `partial` counts the
/// per-component stable models intersected before the token tripped — the
/// partial result itself is *not* returned, because it over-approximates
/// the cautious consequences until every model has been seen.
///
/// Solved component by component, never over whole-program models. The
/// rules split into atom-disjoint components ([`crate::resolve`]'s
/// partitioning), and by the splitting theorem the stable models of the
/// program are exactly the unions of one stable model per component. So
/// the program has a stable model iff every component has one, and an atom
/// is cautious iff it is true in every stable model of its component: the
/// answer is the union of the per-component intersections. A program of
/// `k` components with `m` models each costs `k·m` models here instead of
/// `m^k`.
pub fn cautious_consequences_cancellable(
    gp: &GroundProgram,
    cancel: &CancelToken,
) -> Result<Option<Model>, AspError> {
    let interrupted = |partial| AspError::Interrupted {
        phase: "cautious consequences",
        partial,
    };
    cancel.check().map_err(|Cancelled| interrupted(0))?;
    let Some(components) = partition_rules(&gp.rules) else {
        return Ok(None); // an empty-bodied denial: no model at all
    };
    let (no_stored, mut warm) = (VecDeque::new(), Warm::default());
    let mut cautious = Model::new();
    let mut seen = 0usize;
    for rules in &components {
        let (models, _, _) = solve_partition(rules, &no_stored, &mut warm, cancel)
            .map_err(|Cancelled| interrupted(seen))?;
        seen += models.len();
        let mut models = models.into_iter();
        let Some(mut common) = models.next() else {
            return Ok(None); // a modelless component sinks the program
        };
        for m in models {
            common.retain(|a| m.contains(a));
        }
        cautious.extend(common);
    }
    Ok(Some(cautious))
}

/// Brave consequences: atoms true in *some* stable model.
/// `None` if the program has no stable models.
pub fn brave_consequences(gp: &GroundProgram) -> Option<Model> {
    let mut acc: Option<Model> = None;
    let _ = for_each_stable_model(gp, |m| {
        match &mut acc {
            None => acc = Some(m.clone()),
            Some(seen) => seen.extend(m.iter().copied()),
        }
        ControlFlow::<()>::Continue(())
    });
    acc
}

/// Is `model` a stable model of `gp`?
pub fn is_stable(gp: &GroundProgram, model: &Model) -> bool {
    is_stable_cancellable(gp, model, &CancelToken::never())
        .expect("never-token check cannot be cancelled")
}

/// [`is_stable`] under a cancellation token: the coNP minimality
/// sub-search (disjunctive reducts) polls it per CDCL iteration; the
/// polynomial normal-reduct fast path polls it per fixpoint round.
pub fn is_stable_cancellable(
    gp: &GroundProgram,
    model: &Model,
    cancel: &CancelToken,
) -> Result<bool, Cancelled> {
    is_stable_warm(&gp.rules, model, None, cancel)
}

/// Shared body of the `is_stable*` entry points, with optional
/// warm-start chaining across successive checks.
pub(crate) fn is_stable_warm(
    rules: &[GroundRule],
    model: &Model,
    warm: Option<&mut Warm>,
    cancel: &CancelToken,
) -> Result<bool, Cancelled> {
    // The GL-reduct: rules whose negative body avoids the model.
    let reduct: Vec<&GroundRule> = rules
        .iter()
        .filter(|r| r.neg.iter().all(|n| !model.contains(n)))
        .collect();
    // M must be a model of the reduct…
    for rule in &reduct {
        let body_holds = rule.pos.iter().all(|p| model.contains(p));
        if body_holds && !rule.head.iter().any(|h| model.contains(h)) {
            return Ok(false);
        }
    }
    // …and a minimal one.
    if reduct.iter().all(|r| r.head.len() <= 1) {
        // Normal reduct: minimal model of a definite program = least
        // fixpoint; stable iff lfp == M. Polynomial (Section 6 fast path).
        least_model_equals(&reduct, model, cancel)
    } else {
        Ok(!has_smaller_model(&reduct, model, warm, cancel)?)
    }
}

/// Definite-program least-model check (restricted to rules with bodies in
/// M — others cannot fire below M).
fn least_model_equals(
    reduct: &[&GroundRule],
    model: &Model,
    cancel: &CancelToken,
) -> Result<bool, Cancelled> {
    let mut derived: Model = Model::new();
    loop {
        cancel.check()?;
        let mut grew = false;
        for rule in reduct {
            if rule.head.len() != 1 {
                continue; // denials don't derive
            }
            if rule.pos.iter().all(|p| derived.contains(p)) && derived.insert(rule.head[0]) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    // lfp ⊆ M always (M is a model); stable iff every atom of M derived.
    Ok(&derived == model)
}

/// Search for a model `M′ ⊊ M` of the (positive) reduct: SAT over the
/// atoms of M with "keep" variables. With a `warm` store it seeds (and
/// then refreshes) chained phase/activity heuristics.
fn has_smaller_model(
    reduct: &[&GroundRule],
    model: &Model,
    warm: Option<&mut Warm>,
    cancel: &CancelToken,
) -> Result<bool, Cancelled> {
    let atoms: Vec<AtomId> = model.iter().copied().collect();
    let var_of = |a: AtomId| -> Option<u32> { atoms.binary_search(&a).ok().map(|i| i as u32) };
    let mut cnf = Cnf::new(atoms.len());
    for rule in reduct {
        // Atoms outside M in the positive body keep the rule satisfied in
        // any M′ ⊆ M.
        if rule.pos.iter().any(|p| !model.contains(p)) {
            continue;
        }
        // keep(pos) → ∨ keep(head ∩ M)
        let mut clause: Vec<Lit> = rule
            .pos
            .iter()
            .map(|&p| Lit::neg(var_of(p).expect("pos ⊆ M")))
            .collect();
        for h in &rule.head {
            if let Some(v) = var_of(*h) {
                clause.push(Lit::pos(v));
            }
        }
        cnf.add_clause(clause);
    }
    // Strictly smaller: at least one atom dropped.
    cnf.add_clause((0..atoms.len() as u32).map(Lit::neg));
    if let Some(w) = warm {
        let (sat, phases, acts) = cnf.satisfiable_warm(cancel, &w.phases, &w.acts)?;
        w.phases = phases;
        w.acts = acts;
        return Ok(sat);
    }
    cnf.satisfiable_cancellable(cancel)
}

/// A supported-model encoding plus the variable layout incremental
/// consumers need to decode solver literals back into program objects:
/// variables `0..atom_count` are the program's atoms, and variable
/// `support_base[ri] + hi` is the support variable of head slot `hi` of
/// rule `ri`.
pub(crate) struct Encoded {
    pub cnf: Cnf,
    pub support_base: Vec<u32>,
}

/// CNF encoding: rule clauses + support clauses (see module docs).
fn encode(gp: &GroundProgram) -> Cnf {
    encode_impl(&gp.rules, gp.atom_count(), false).cnf
}

/// [`encode`] with per-clause premise tags for learned-clause reuse
/// (identical clauses in identical order; only the tags differ):
///
/// * rule clause and support definitions of rule `ri` — premise `{ri}`;
/// * the completion clause `a → ∨ supports(a)` — premise
///   `{rules_len + a} ∪ {ri : a ∈ head(ri)}`. The marker id records that
///   the clause is definitional for atom `a`'s *exact* head-rule set: it
///   is only valid in a program whose rules heading `a` are exactly the
///   heading rules recorded in the premise.
pub(crate) fn encode_tagged(rules: &[GroundRule], atom_count: usize) -> Encoded {
    encode_impl(rules, atom_count, true)
}

/// Encode `rules` over atoms `0..n`.
fn encode_impl(rules: &[GroundRule], n: usize, tagged: bool) -> Encoded {
    let rules_len = rules.len() as u32;
    // Auxiliary support variables, one per (rule, head-atom) pair,
    // allocated consecutively per rule.
    let mut support_base: Vec<u32> = Vec::with_capacity(rules.len());
    let mut next = n as u32;
    for rule in rules {
        support_base.push(next);
        next += rule.head.len() as u32;
    }
    let mut cnf = Cnf::new(next as usize);
    // Supports of each atom, and (tagged only) the rules heading it.
    let mut supports: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut heading: Vec<Vec<u32>> = vec![Vec::new(); if tagged { n } else { 0 }];

    for (ri, rule) in rules.iter().enumerate() {
        let tag = ri as u32;
        let emit = |cnf: &mut Cnf, lits: Vec<Lit>| {
            if tagged {
                cnf.add_clause_premised(lits, [tag]);
            } else {
                cnf.add_clause(lits);
            }
        };
        // Rule clause: ∨ head ∨ ¬pos ∨ neg.
        let clause = rule
            .head
            .iter()
            .map(|&h| Lit::pos(h))
            .chain(rule.pos.iter().map(|&p| Lit::neg(p)))
            .chain(rule.neg.iter().map(|&m| Lit::pos(m)))
            .collect();
        emit(&mut cnf, clause);

        // Support definitions.
        for (hi, &a) in rule.head.iter().enumerate() {
            let s = support_base[ri] + hi as u32;
            supports[a as usize].push(s);
            if tagged {
                heading[a as usize].push(tag);
            }
            // s → pos true, neg false, other heads false.
            let mut condition: Vec<Lit> = Vec::new();
            for &p in &rule.pos {
                emit(&mut cnf, vec![Lit::neg(s), Lit::pos(p)]);
                condition.push(Lit::neg(p));
            }
            for &m in &rule.neg {
                emit(&mut cnf, vec![Lit::neg(s), Lit::neg(m)]);
                condition.push(Lit::pos(m));
            }
            for (hj, &b) in rule.head.iter().enumerate() {
                if hj != hi {
                    emit(&mut cnf, vec![Lit::neg(s), Lit::neg(b)]);
                    condition.push(Lit::pos(b));
                }
            }
            // Completion: condition → s (makes s functionally determined,
            // so each supported model appears exactly once).
            condition.push(Lit::pos(s));
            emit(&mut cnf, condition);
        }
    }
    // a → ∨ supports(a).
    for (a, sup) in supports.iter().enumerate() {
        let mut clause = vec![Lit::neg(a as u32)];
        clause.extend(sup.iter().map(|&s| Lit::pos(s)));
        if tagged {
            let premise = std::iter::once(rules_len + a as u32).chain(heading[a].iter().copied());
            cnf.add_clause_premised(clause, premise);
        } else {
            cnf.add_clause(clause);
        }
    }
    Encoded { cnf, support_base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::syntax::{atom, neg, pos, tv, Program};
    use cqa_relational::testing::XorShift;
    use cqa_relational::{i, s, Value};

    fn models_of(p: &Program) -> Vec<Vec<String>> {
        let gp = ground(p);
        stable_models(&gp)
            .into_iter()
            .map(|m| {
                m.iter()
                    .map(|&a| crate::display::ground_atom_to_string(p, gp.atom(a)))
                    .collect()
            })
            .collect()
    }

    /// Brute-force stable-model oracle: enumerate all subsets of atoms.
    fn oracle(gp: &GroundProgram) -> Vec<Model> {
        let n = gp.atom_count();
        assert!(n <= 16, "oracle only for tiny programs");
        let mut out = Vec::new();
        for mask in 0u32..(1 << n) {
            let m: Model = (0..n as AtomId).filter(|&a| mask & (1 << a) != 0).collect();
            // classical model check
            let classical = gp.rules.iter().all(|r| {
                let body =
                    r.pos.iter().all(|p| m.contains(p)) && r.neg.iter().all(|x| !m.contains(x));
                !body || r.head.iter().any(|h| m.contains(h))
            });
            if classical && is_stable(gp, &m) {
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn facts_alone_have_one_stable_model() {
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("r", [i(2)]).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].len(), 2);
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn disjunctive_fact_gives_two_minimal_models() {
        // a ∨ b. → stable models {a}, {b} (not {a,b}: not minimal).
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 2);
        assert!(models.iter().all(|m| m.len() == 1));
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn negation_choice_program() {
        // a ← not b. b ← not a. → {a}, {b}.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", [])], [neg(atom("b", []))]).unwrap();
        p.rule([atom("b", [])], [neg(atom("a", []))]).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 2);
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        // a ← not a. → no stable model.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.rule([atom("a", [])], [neg(atom("a", []))]).unwrap();
        let gp = ground(&p);
        assert!(stable_models(&gp).is_empty());
        assert!(cautious_consequences(&gp).is_none());
        assert_eq!(oracle(&gp), Vec::<Model>::new());
    }

    #[test]
    fn positive_loop_is_unfounded() {
        // a ← b. b ← a. → only {} stable ({a,b} is supported but unfounded).
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", [])], [pos(atom("b", []))]).unwrap();
        p.rule([atom("b", [])], [pos(atom("a", []))]).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 1);
        assert!(models[0].is_empty());
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn denial_filters_models() {
        // a ∨ b. ← a. → only {b}.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        p.rule([], [pos(atom("a", []))]).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 1);
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn disjunction_with_shared_consequence() {
        // a ∨ b. c ← a. c ← b. → {a,c}, {b,c}.
        let mut p = Program::new();
        for q in ["a", "b", "c"] {
            p.pred(q, 0).unwrap();
        }
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        p.rule([atom("c", [])], [pos(atom("a", []))]).unwrap();
        p.rule([atom("c", [])], [pos(atom("b", []))]).unwrap();
        let gp = ground(&p);
        let models = stable_models(&gp);
        assert_eq!(models.len(), 2);
        assert!(models.iter().all(|m| m.len() == 2));
        assert_eq!(models, oracle(&gp));
    }

    #[test]
    fn non_hcf_program_stable_models() {
        // The classic non-HCF example: a ∨ b. a ← b. b ← a.
        // Minimal models of the reduct: {a,b} is the unique stable model?
        // Check against the oracle rather than intuition.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        p.rule([atom("a", [])], [pos(atom("b", []))]).unwrap();
        p.rule([atom("b", [])], [pos(atom("a", []))]).unwrap();
        let gp = ground(&p);
        assert_eq!(stable_models(&gp), oracle(&gp));
    }

    #[test]
    fn cautious_and_brave() {
        // a ∨ b. c. → cautious {c}, brave {a,b,c}.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.fact("c", []).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        let gp = ground(&p);
        let cautious = cautious_consequences(&gp).unwrap();
        let brave = brave_consequences(&gp).unwrap();
        assert_eq!(cautious.len(), 1);
        assert_eq!(brave.len(), 3);
    }

    #[test]
    fn grounded_variables_and_negation() {
        // q(x) ← r(x), not bad(x). with bad(2) a fact.
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("r", [i(2)]).unwrap();
        p.fact("bad", [i(2)]).unwrap();
        p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("r", [tv("x")])), neg(atom("bad", [tv("x")]))],
        )
        .unwrap();
        let models = models_of(&p);
        assert_eq!(models.len(), 1);
        assert!(models[0].contains(&"q(1)".to_string()));
        assert!(!models[0].contains(&"q(2)".to_string()));
    }

    #[test]
    fn cancellation_interrupts_enumeration() {
        // a ∨ b. → two models. A pre-tripped token interrupts before any
        // model is produced; a fresh token reproduces the ungoverned call.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        let gp = ground(&p);
        let tripped = CancelToken::new();
        tripped.cancel();
        match stable_models_cancellable(&gp, &tripped) {
            Err(AspError::Interrupted { partial, .. }) => assert_eq!(partial, 0),
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert!(matches!(
            cautious_consequences_cancellable(&gp, &tripped),
            Err(AspError::Interrupted { .. })
        ));
        let fresh = CancelToken::new();
        assert_eq!(
            stable_models_cancellable(&gp, &fresh).unwrap(),
            stable_models(&gp)
        );
    }

    #[test]
    fn string_constants_work() {
        let mut p = Program::new();
        p.fact("r", [Value::str("x"), s("y")]).unwrap();
        p.rule(
            [atom("swap", [tv("b"), tv("a")])],
            [pos(atom("r", [tv("a"), tv("b")]))],
        )
        .unwrap();
        let models = models_of(&p);
        assert!(models[0].contains(&"swap(y, x)".to_string()));
    }

    /// The whole-program oracle: the intersection of every stable model.
    fn cautious_oracle(gp: &GroundProgram) -> Option<Model> {
        let mut models = stable_models(gp).into_iter();
        let first = models.next()?;
        Some(models.fold(first, |acc, m| acc.intersection(&m).copied().collect()))
    }

    /// A random disjunctive program of `families` disconnected families:
    /// each family's rules (heads of 0–2 atoms, bodies of 0–2 positive or
    /// negated atoms, facts) draw only on its own 0-ary atoms.
    fn family_program(rng: &mut XorShift, families: usize) -> Program {
        let mut p = Program::new();
        for f in 0..families {
            let names: Vec<String> = (0..3).map(|k| format!("f{f}a{k}")).collect();
            for n in &names {
                p.pred(n, 0).unwrap();
            }
            let pick = |rng: &mut XorShift| atom(names[rng.below(names.len())].as_str(), []);
            for _ in 0..1 + rng.below(5) {
                let head: Vec<_> = (0..rng.below(3)).map(|_| pick(rng)).collect();
                let body: Vec<_> = (0..rng.below(3))
                    .map(|_| {
                        if rng.chance(1, 2) {
                            pos(pick(rng))
                        } else {
                            neg(pick(rng))
                        }
                    })
                    .collect();
                if !head.is_empty() || !body.is_empty() {
                    p.rule(head, body).unwrap();
                }
            }
        }
        p
    }

    #[test]
    fn cautious_per_component_equals_the_whole_program_intersection() {
        let mut rng = XorShift::new(0xca07);
        let (mut modelless, mut several) = (0, 0);
        for round in 0..300 {
            let families = 2 + rng.below(3);
            let p = family_program(&mut rng, families);
            let gp = ground(&p);
            let want = cautious_oracle(&gp);
            let got = cautious_consequences_cancellable(&gp, &CancelToken::never()).unwrap();
            assert_eq!(got, want, "round {round}: {:?}", gp.rules);
            modelless += usize::from(want.is_none());
            several += usize::from(stable_models(&gp).len() > 1);
        }
        // The draws cover both contract cases: modelless programs (some
        // component has no stable model) and programs whose components
        // have several.
        assert!(modelless >= 20 && several >= 20, "{modelless} / {several}");
    }

    #[test]
    fn cautious_edge_cases() {
        // A modelless component sinks the program, whatever the others.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.fact("c", []).unwrap();
        p.rule([atom("a", [])], [neg(atom("a", []))]).unwrap();
        assert_eq!(cautious_consequences(&ground(&p)), None);
        // The empty program has one stable model, the empty one.
        assert_eq!(
            cautious_consequences(&ground(&Program::new())),
            Some(Model::new())
        );
        // An empty-bodied denial has no model at all.
        let mut p = Program::new();
        p.fact("c", []).unwrap();
        p.rule([], []).unwrap();
        let gp = ground(&p);
        assert_eq!(cautious_oracle(&gp), None);
        assert_eq!(cautious_consequences(&gp), None);
        // A pre-tripped token interrupts before any model is counted.
        let mut rng = XorShift::new(7);
        let gp = ground(&family_program(&mut rng, 3));
        let tripped = CancelToken::new();
        tripped.cancel();
        match cautious_consequences_cancellable(&gp, &tripped) {
            Err(AspError::Interrupted { partial, .. }) => assert_eq!(partial, 0),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    /// A mixed program exercising disjunction, negation and facts, for
    /// the encoding and oracle tests below.
    fn mixed_program() -> GroundProgram {
        let mut p = Program::new();
        for q in ["a", "b", "c", "d"] {
            p.pred(q, 0).unwrap();
        }
        p.fact("r", [i(1)]).unwrap();
        p.rule([atom("a", []), atom("b", [])], []).unwrap();
        p.rule([atom("c", [])], [pos(atom("a", [])), neg(atom("d", []))])
            .unwrap();
        p.rule([atom("a", [])], [pos(atom("b", []))]).unwrap();
        p.rule([atom("b", [])], [pos(atom("a", []))]).unwrap();
        p.rule([], [pos(atom("d", []))]).unwrap();
        ground(&p)
    }

    #[test]
    fn tagged_encoding_matches_untagged_clause_for_clause() {
        let gp = mixed_program();
        let plain = encode(&gp);
        let tagged = encode_tagged(&gp.rules, gp.atom_count());
        assert_eq!(plain.num_vars(), tagged.cnf.num_vars());
        assert_eq!(plain.clauses, tagged.cnf.clauses);
        // Every untagged premise is None; every tagged premise is Some
        // (nothing here overflows PREMISE_CAP).
        assert!(plain.premises.iter().all(|p| p.is_none()));
        assert!(tagged.cnf.premises.iter().all(|p| p.is_some()));
        // Support-variable layout covers exactly the auxiliary range.
        let heads: u32 = gp.rules.iter().map(|r| r.head.len() as u32).sum();
        assert_eq!(tagged.support_base.len(), gp.rules.len());
        assert_eq!(tagged.cnf.num_vars(), gp.atom_count() + heads as usize);
        // Completion premises carry the head-marker id and the heading
        // rule slots; the marker id space starts past the rule slots.
        let rules_len = gp.rules.len() as u32;
        let completion_tail = &tagged.cnf.premises[tagged.cnf.premises.len() - gp.atom_count()..];
        for p in completion_tail {
            let p = p.as_ref().unwrap();
            assert!(
                p.iter().any(|&t| t >= rules_len),
                "missing head marker in {p:?}"
            );
        }
    }

    #[test]
    fn mixed_program_models_match_the_oracle() {
        let gp = mixed_program();
        assert_eq!(stable_models(&gp), oracle(&gp));
    }
}
