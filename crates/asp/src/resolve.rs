//! Delta-aware, partitioned stable-model solving: the solver-side
//! counterpart of the incremental grounder.
//!
//! [`GroundingState`] keeps the ground program current under fact churn
//! for a few milliseconds per delta, but every query still re-enumerated
//! stable models from scratch — an order of magnitude more work than the
//! reground itself. This module closes that gap with a persistent
//! [`SolverState`] kept alongside the grounding:
//!
//! 1. **Partitioned solving.** The ground program is split into connected
//!    components over shared atoms (union–find on the rule/atom incidence
//!    graph). By the splitting theorem, the stable models of an
//!    atom-disjoint union are exactly the unions of one stable model per
//!    component, so each component is solved independently and
//!    [`resolve_on_state`] returns the model list of each component; it
//!    never forms their cartesian product. A one-fact delta usually
//!    touches one component; the rest hit the memo below.
//! 2. **Memo of the current components.** Each component of the program
//!    last resolved is memoised under its (sorted) rule content with its
//!    stable models. The key is self-validating: identical rule content
//!    has identical stable models. After each resolve the memo holds
//!    exactly the current program's components: a component the resolve
//!    did not meet (a delta removed it) is dropped, so the memo needs no
//!    cap and no eviction policy.
//!    Atom ids are stable for the lifetime of one [`GroundingState`]
//!    (interning is monotone), which is exactly the lifetime a
//!    `SolverState` is paired with.
//! 3. **Learned-clause reuse.** Component solves run on the
//!    premise-tagged encoding ([`crate::solve`], "Incremental solving
//!    architecture"): every learned clause that survives conflict
//!    analysis with a concrete premise — the set of ground rules and
//!    per-atom completion markers it was derived from — is harvested into
//!    the state. A later solve of a *changed* component re-injects a
//!    stored clause iff its premise still holds there: all premise rules
//!    are present, and for every completion marker the component's rules
//!    heading that atom are exactly the recorded ones. Validity is
//!    decided by content alone, so reuse is sound even across retract /
//!    re-add churn; the retraction log of the grounder
//!    ([`GroundingState::retractions_since`]) additionally tombstones
//!    clauses whose premise rules were deleted, keeping the store small.
//! 4. **Warm heuristics.** Saved phases and variable activities chain
//!    across the coNP minimality sub-searches. Each component's model
//!    list is sorted; no sorted list of whole-program models is built.
//!    Callers that want whole models form the product themselves (tests
//!    and the `resolve_delta` bench); the program route reads each
//!    component model's change to the database instead.

use crate::error::AspError;
use crate::ground::{AtomId, GroundRule, GroundingState};
use crate::solve::Lit;
use crate::stable::{encode_tagged, is_stable_warm, Model, Warm};
use cqa_relational::{CancelToken, Cancelled};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Stored clauses are dropped beyond this many literals: long clauses
/// prune little and cost the most to validate and re-inject.
const STORED_CLAUSE_MAX_LITS: usize = 24;
/// Cap on the learned-clause store (FIFO beyond it).
const CLAUSE_STORE_CAP: usize = 2048;
/// Cap on clauses harvested from a single component solve.
const HARVEST_CAP: usize = 256;

/// The stable models of one connected component of a ground program,
/// sorted; shared with the [`SolverState`] memo that holds them.
pub type ComponentModels = Arc<[Model]>;

/// Counters of the incremental solver, in the same named-struct shape as
/// the grounding- and worklist-cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStateStats {
    /// Component solves answered from the model memo.
    pub partition_hits: u64,
    /// Component solves that ran the CDCL engine.
    pub partition_misses: u64,
    /// Stored learned clauses re-injected into a later solve.
    pub learned_reused: u64,
    /// Stored learned clauses dropped because a premise rule was
    /// retracted by the grounder.
    pub learned_tombstoned: u64,
}

/// A learned-clause literal in storage form: solver variables are
/// meaningless across solves, so literals are stored against program
/// content — global atom ids, or (rule, head-slot) support positions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StoredLit {
    /// An atom literal: `(atom, positive)`.
    Atom(AtomId, bool),
    /// A support-variable literal of head slot `slot` of `rules[rule]`
    /// (index into the owning clause's premise rules).
    Support {
        rule: u32,
        slot: u32,
        positive: bool,
    },
}

/// A harvested learned clause with its decoded premise. The clause is
/// implied by the rule clauses / support definitions of `rules` plus the
/// completion clauses of `markers` — and by *nothing else* — so it may be
/// injected into any component where that premise reproduces.
#[derive(Debug, Clone)]
pub(crate) struct StoredClause {
    lits: Vec<StoredLit>,
    /// Sorted, deduplicated premise rules ([`StoredLit::Support`] indexes
    /// into this).
    rules: Vec<GroundRule>,
    /// Atoms whose completion clause is part of the premise: valid only
    /// where the rules heading the atom are exactly those in `rules`.
    markers: Vec<AtomId>,
}

/// Persistent solver state paired with one [`GroundingState`]: the
/// per-component model memo, the learned-clause store and the warm
/// search heuristics that make [`resolve_on_state`] incremental. Create
/// it once per grounding lineage and discard it whenever the grounding is
/// rebuilt from scratch (atom ids restart there). `Clone` snapshots the
/// whole state — memo, clause store, heuristics — so benchmarks and
/// speculative resolves can fork a warmed state without re-learning.
#[derive(Debug, Clone)]
pub struct SolverState {
    /// High-water mark of [`GroundingState::retraction_seq`] processed.
    synced_seq: u64,
    /// The components of the program last resolved, by rule content,
    /// each with the resolve that last met it.
    models: HashMap<Vec<GroundRule>, (ComponentModels, u64)>,
    /// Resolves run so far.
    resolves: u64,
    clauses: VecDeque<StoredClause>,
    warm: Warm,
    stats: SolverStateStats,
}

impl SolverState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        SolverState {
            synced_seq: 0,
            models: HashMap::new(),
            clauses: VecDeque::new(),
            warm: Warm::default(),
            resolves: 0,
            stats: SolverStateStats::default(),
        }
    }

    /// Counters since creation.
    pub fn stats(&self) -> SolverStateStats {
        self.stats
    }

    /// Ingest the grounder's retraction log: tombstone stored clauses
    /// whose premise mentions a retracted rule. A trimmed (or unknown)
    /// log clears the whole store — injection-time validation keeps
    /// either outcome sound; this only bounds the store.
    fn sync_retractions(&mut self, gs: &GroundingState) {
        let seq = gs.retraction_seq();
        if seq == self.synced_seq {
            return;
        }
        match gs.retractions_since(self.synced_seq) {
            Some(retracted) if !retracted.is_empty() => {
                let before = self.clauses.len();
                self.clauses
                    .retain(|sc| !sc.rules.iter().any(|r| retracted.contains(r)));
                self.stats.learned_tombstoned += (before - self.clauses.len()) as u64;
            }
            Some(_) => {}
            None => {
                self.stats.learned_tombstoned += self.clauses.len() as u64;
                self.clauses.clear();
            }
        }
        self.synced_seq = seq;
    }
}

impl Default for SolverState {
    fn default() -> Self {
        Self::new()
    }
}

/// Split the rules into connected components over shared atoms. Returns
/// the sorted rule list of each component, in a deterministic order.
/// `None` signals an unconditional falsum (a rule with no atoms at all:
/// an empty-bodied denial) — the program has no models.
pub(crate) fn partition_rules(rules: &[GroundRule]) -> Option<Vec<Vec<GroundRule>>> {
    // Union–find over atoms; each rule unions all its atoms.
    let max_atom = rules
        .iter()
        .flat_map(|r| r.head.iter().chain(&r.pos).chain(&r.neg))
        .max()
        .copied();
    let mut parent: Vec<u32> = (0..max_atom.map_or(0, |m| m + 1)).collect();
    fn find(parent: &mut [u32], a: u32) -> u32 {
        let mut root = a;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = a;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for rule in rules {
        let mut atoms = rule.head.iter().chain(&rule.pos).chain(&rule.neg);
        let Some(&first) = atoms.next() else {
            return None; // ← . : unconditionally violated denial
        };
        let root = find(&mut parent, first);
        for &a in atoms {
            let r = find(&mut parent, a);
            parent[r as usize] = root;
        }
    }
    // Group rules by component root, preserving first-seen order.
    let mut order: Vec<u32> = Vec::new();
    let mut groups: HashMap<u32, Vec<GroundRule>> = HashMap::new();
    for rule in rules {
        let root = find(
            &mut parent,
            rule.head
                .first()
                .copied()
                .unwrap_or_else(|| rule.pos.first().copied().unwrap_or_else(|| rule.neg[0])),
        );
        let entry = groups.entry(root).or_default();
        if entry.is_empty() {
            order.push(root);
        }
        entry.push(rule.clone());
    }
    let mut out = Vec::with_capacity(order.len());
    for root in order {
        let mut part = groups.remove(&root).expect("grouped above");
        part.sort_unstable();
        out.push(part);
    }
    Some(out)
}

/// Solve one component from scratch on the premise-tagged encoding,
/// injecting every still-valid stored clause and harvesting new ones.
/// Also the per-component step of
/// [`crate::stable::cautious_consequences_cancellable`], which passes an
/// empty store and drops the harvest.
/// Returns the component's stable models (global atom ids, sorted), the
/// harvested clauses and the number of stored clauses re-injected.
pub(crate) fn solve_partition(
    rules: &[GroundRule],
    stored: &VecDeque<StoredClause>,
    warm: &mut Warm,
    cancel: &CancelToken,
) -> Result<(Vec<Model>, Vec<StoredClause>, u64), Cancelled> {
    // Local rules: the component's atoms numbered densely in first-seen
    // order; the solver reads only ids, never atom contents.
    let mut local: Vec<GroundRule> = Vec::with_capacity(rules.len());
    let mut to_local: HashMap<AtomId, u32> = HashMap::new();
    let mut to_global: Vec<AtomId> = Vec::new();
    for rule in rules {
        let mut map_ids = |ids: &[AtomId]| -> Vec<AtomId> {
            ids.iter()
                .map(|&a| {
                    *to_local.entry(a).or_insert_with(|| {
                        to_global.push(a);
                        to_global.len() as u32 - 1
                    })
                })
                .collect()
        };
        let head = map_ids(&rule.head);
        let pos = map_ids(&rule.pos);
        let neg = map_ids(&rule.neg);
        local.push(GroundRule { head, pos, neg });
    }
    let n = to_global.len();
    let encoded = encode_tagged(&local, n);
    let mut cnf = encoded.cnf;
    let support_base = encoded.support_base;

    // Inject stored clauses whose premise reproduces in this component.
    let mut reused = 0u64;
    'sc: for sc in stored {
        let mut slots: Vec<u32> = Vec::with_capacity(sc.rules.len());
        for r in &sc.rules {
            match rules.binary_search(r) {
                Ok(s) => slots.push(s as u32),
                Err(_) => continue 'sc,
            }
        }
        for &a in &sc.markers {
            if !to_local.contains_key(&a) {
                continue 'sc;
            }
            // Exact head-rule set: both sides drawn from sorted rule
            // lists, so filtered sequences compare as sets.
            let here: Vec<&GroundRule> = rules.iter().filter(|r| r.head.contains(&a)).collect();
            let then: Vec<&GroundRule> = sc.rules.iter().filter(|r| r.head.contains(&a)).collect();
            if here != then {
                continue 'sc;
            }
        }
        let mut lits: Vec<Lit> = Vec::with_capacity(sc.lits.len());
        for l in &sc.lits {
            match *l {
                StoredLit::Atom(a, positive) => {
                    let Some(&v) = to_local.get(&a) else {
                        continue 'sc;
                    };
                    lits.push(Lit { var: v, positive });
                }
                StoredLit::Support {
                    rule,
                    slot,
                    positive,
                } => {
                    let ri = slots[rule as usize] as usize;
                    lits.push(Lit {
                        var: support_base[ri] + slot,
                        positive,
                    });
                }
            }
        }
        let premise: Vec<u32> = slots
            .iter()
            .copied()
            .chain(sc.markers.iter().map(|a| rules.len() as u32 + to_local[a]))
            .collect();
        cnf.add_clause_premised(lits, premise);
        reused += 1;
    }

    // Enumerate supported models; keep the stable ones; harvest every
    // premise-tracked learned clause.
    let mut models: Vec<Model> = Vec::new();
    let mut harvested: Vec<StoredClause> = Vec::new();
    let flow = cnf.for_each_model_tracked(
        n,
        cancel,
        |assignment| {
            let local_model: Model = (0..n as AtomId)
                .filter(|&a| assignment[a as usize])
                .collect();
            match is_stable_warm(&local, &local_model, Some(&mut *warm), cancel) {
                Err(c) => ControlFlow::Break(c),
                Ok(false) => ControlFlow::Continue(()),
                Ok(true) => {
                    models.push(local_model.iter().map(|&a| to_global[a as usize]).collect());
                    ControlFlow::Continue(())
                }
            }
        },
        |lits, premise| {
            let Some(premise) = premise else { return };
            if lits.len() > STORED_CLAUSE_MAX_LITS || harvested.len() >= HARVEST_CAP {
                return;
            }
            let mut prules: Vec<GroundRule> = Vec::new();
            let mut markers: Vec<AtomId> = Vec::new();
            for &t in premise {
                if (t as usize) < rules.len() {
                    prules.push(rules[t as usize].clone());
                } else {
                    markers.push(to_global[(t - rules.len() as u32) as usize]);
                }
            }
            prules.sort();
            prules.dedup();
            let mut slits: Vec<StoredLit> = Vec::with_capacity(lits.len());
            for &l in lits {
                if (l.var as usize) < n {
                    slits.push(StoredLit::Atom(to_global[l.var as usize], l.positive));
                } else {
                    // Owning rule of a support variable: last base ≤ var
                    // (empty-headed rules share their successor's base but
                    // own no variables).
                    let ri = support_base.partition_point(|&b| b <= l.var) - 1;
                    let slot = l.var - support_base[ri];
                    // Any tracked clause mentioning s(ri, ·) has rule ri
                    // in its premise (every original clause over that
                    // variable does, inductively); skip defensively if
                    // the invariant were ever violated.
                    let Ok(idx) = prules.binary_search(&rules[ri]) else {
                        return;
                    };
                    slits.push(StoredLit::Support {
                        rule: idx as u32,
                        slot,
                        positive: l.positive,
                    });
                }
            }
            harvested.push(StoredClause {
                lits: slits,
                rules: prules,
                markers,
            });
        },
    )?;
    if let ControlFlow::Break(c) = flow {
        return Err(c);
    }
    models.sort();
    Ok((models, harvested, reused))
}

/// Stable models of the grounding's current program through the
/// persistent [`SolverState`], one list per connected component:
/// partition, reuse, solve only what changed.
///
/// The stable models of the whole program are exactly the unions of one
/// model from each component's list ([`crate::stable::stable_models`] of
/// [`GroundingState::ground_program`] is that product, sorted), but the
/// product is not formed here. A component with no model means the
/// program has none; no component at all means its one model is empty.
/// A delta that touches one component re-solves only that component.
/// Do not call on a poisoned grounding (its ground program is partial);
/// rebuild both states instead.
pub fn resolve_on_state(
    gs: &GroundingState,
    ss: &mut SolverState,
    cancel: &CancelToken,
) -> Result<Vec<ComponentModels>, AspError> {
    let gp = gs.ground_program();
    ss.sync_retractions(gs);
    let Some(partitions) = partition_rules(&gp.rules) else {
        ss.models.clear();
        return Ok(vec![ComponentModels::from(Vec::new())]);
    };
    ss.resolves += 1;
    let now = ss.resolves;

    // One pass in component order: a memo hit is stamped with this
    // resolve, a miss is solved unless the token already tripped. Then
    // the memo drops every component this resolve did not meet, so it
    // holds exactly the current program's components — also on the
    // interrupted path, where solved components are valid and make the
    // retry cheaper. Clauses harvested in the pass join the store after
    // it, for later resolves.
    let mut components: Vec<ComponentModels> = Vec::with_capacity(partitions.len());
    let mut harvest: Vec<StoredClause> = Vec::new();
    let mut interrupted = false;
    for part in partitions {
        if let Some((models, met)) = ss.models.get_mut(&part) {
            ss.stats.partition_hits += 1;
            *met = now;
            components.push(models.clone());
            continue;
        }
        ss.stats.partition_misses += 1;
        if interrupted {
            continue;
        }
        match solve_partition(&part, &ss.clauses, &mut ss.warm, cancel) {
            Ok((models, harvested, reused)) => {
                ss.stats.learned_reused += reused;
                harvest.extend(harvested);
                let models = ComponentModels::from(models);
                ss.models.insert(part, (models.clone(), now));
                components.push(models);
            }
            Err(Cancelled) => interrupted = true,
        }
    }
    ss.models.retain(|_, (_, met)| *met == now);
    ss.clauses.extend(harvest);
    while ss.clauses.len() > CLAUSE_STORE_CAP {
        ss.clauses.pop_front();
    }
    if interrupted {
        return Err(AspError::Interrupted {
            phase: "incremental stable-model resolve",
            partial: components.len(),
        });
    }
    Ok(components)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundingState;
    use crate::stable::stable_models;
    use crate::syntax::{atom, neg, pos, tv, Program};
    use cqa_relational::i;

    /// A program with several disconnected fact families: p(x) ∨ q(x) per
    /// r(x), with a denial tying p to a side predicate per family.
    fn family_program(members: &[i64]) -> Program {
        let mut p = Program::new();
        p.pred("p", 1).unwrap();
        p.pred("q", 1).unwrap();
        p.pred("bad", 1).unwrap();
        for &m in members {
            p.fact("r", [i(m)]).unwrap();
        }
        p.rule(
            [atom("p", [tv("x")]), atom("q", [tv("x")])],
            [pos(atom("r", [tv("x")]))],
        )
        .unwrap();
        p.rule([], [pos(atom("p", [tv("x")])), pos(atom("bad", [tv("x")]))])
            .unwrap();
        p
    }

    /// The whole-program models: one model from each component, united,
    /// over every choice, sorted.
    fn whole(components: &[ComponentModels]) -> Vec<Model> {
        let mut out = vec![Model::new()];
        for models in components {
            out = out
                .iter()
                .flat_map(|base| models.iter().map(|m| base.union(m).copied().collect()))
                .collect();
        }
        out.sort();
        out
    }

    /// [`resolve_on_state`]'s whole-program models.
    fn resolve(gs: &GroundingState, ss: &mut SolverState, cancel: &CancelToken) -> Vec<Model> {
        whole(&resolve_on_state(gs, ss, cancel).unwrap())
    }

    fn resolve_fresh(gs: &GroundingState) -> Vec<Model> {
        resolve(gs, &mut SolverState::new(), &CancelToken::never())
    }

    #[test]
    fn partitioned_resolve_equals_monolithic() {
        let p = family_program(&[1, 2, 3]);
        let gs = GroundingState::new(&p);
        let gp = gs.ground_program();
        let expected = stable_models(gp);
        assert_eq!(resolve_fresh(&gs), expected);
        // 3 disconnected r-families → 2³ = 8 models.
        assert_eq!(expected.len(), 8);
    }

    #[test]
    fn partition_cache_hits_across_deltas() {
        let p = family_program(&[1, 2, 3]);
        let mut gs = GroundingState::new(&p);
        let mut ss = SolverState::new();
        let first = resolve(&gs, &mut ss, &CancelToken::never());
        assert_eq!(&first, &stable_models(gs.ground_program()));
        let misses_before = ss.stats().partition_misses;
        assert_eq!(ss.stats().partition_hits, 0);

        // A fourth family only adds one component; the three cached ones
        // are reused verbatim.
        gs.add_fact_named("r", [i(4)]).unwrap();
        let second = resolve(&gs, &mut ss, &CancelToken::never());
        assert_eq!(&second, &stable_models(gs.ground_program()));
        assert_eq!(ss.stats().partition_hits, 3);
        assert_eq!(ss.stats().partition_misses, misses_before + 1);

        // Removing it again restores content the cache still holds: no
        // new solves at all.
        let r = gs.program().pred_id("r").unwrap();
        gs.remove_facts([(r, vec![i(4)])]);
        let third = resolve(&gs, &mut ss, &CancelToken::never());
        assert_eq!(third, first);
        assert_eq!(ss.stats().partition_misses, misses_before + 1);
    }

    #[test]
    fn tombstoning_follows_the_retraction_log() {
        // One connected disjunctive component with a denial, so the solve
        // actually learns premise-tracked clauses.
        let mut p = Program::new();
        p.pred("p", 1).unwrap();
        p.pred("q", 1).unwrap();
        for m in 1..=4 {
            p.fact("r", [i(m)]).unwrap();
        }
        p.fact("link", [i(1), i(2)]).unwrap();
        p.fact("link", [i(2), i(3)]).unwrap();
        p.fact("link", [i(3), i(4)]).unwrap();
        p.rule(
            [atom("p", [tv("x")]), atom("q", [tv("x")])],
            [pos(atom("r", [tv("x")]))],
        )
        .unwrap();
        p.rule(
            [],
            [
                pos(atom("link", [tv("x"), tv("y")])),
                pos(atom("p", [tv("x")])),
                pos(atom("p", [tv("y")])),
            ],
        )
        .unwrap();
        let mut gs = GroundingState::new(&p);
        let mut ss = SolverState::new();
        let first = resolve(&gs, &mut ss, &CancelToken::never());
        assert_eq!(&first, &stable_models(gs.ground_program()));

        // Retract a link: rules over it leave the ground program, and any
        // stored clause premised on them must go too.
        let link = gs.program().pred_id("link").unwrap();
        gs.remove_facts([(link, vec![i(2), i(3)])]);
        let second = resolve(&gs, &mut ss, &CancelToken::never());
        assert_eq!(&second, &stable_models(gs.ground_program()));
        for sc in &ss.clauses {
            for r in &sc.rules {
                assert!(
                    gs.ground_program().rules.contains(r),
                    "stored clause premised on a rule no longer in the program"
                );
            }
        }
    }

    #[test]
    fn clause_reuse_happens_and_stays_sound() {
        // Churn one family of a multi-family program back and forth; the
        // answers must track the monolithic solver exactly while the
        // stable families' clauses and models are reused.
        let p = family_program(&[1, 2, 3]);
        let mut gs = GroundingState::new(&p);
        let mut ss = SolverState::new();
        for round in 0..6 {
            if round % 2 == 0 {
                gs.add_fact_named("r", [i(9)]).unwrap();
            } else {
                let r = gs.program().pred_id("r").unwrap();
                gs.remove_facts([(r, vec![i(9)])]);
            }
            let got = resolve(&gs, &mut ss, &CancelToken::never());
            assert_eq!(got, stable_models(gs.ground_program()), "round {round}");
        }
        assert!(ss.stats().partition_hits > 0);
    }

    #[test]
    fn empty_and_denial_only_programs() {
        // No rules at all → the single empty model.
        let p = Program::new();
        let gs = GroundingState::new(&p);
        assert_eq!(resolve_fresh(&gs), vec![Model::new()]);

        // An unsatisfiable component sinks everything.
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("s", [i(2)]).unwrap();
        p.rule([], [pos(atom("s", [tv("x")]))]).unwrap();
        let gs = GroundingState::new(&p);
        assert_eq!(resolve_fresh(&gs), Vec::<Model>::new());
        assert_eq!(stable_models(gs.ground_program()), Vec::<Model>::new());
    }

    #[test]
    fn cancellation_reports_interrupted() {
        let p = family_program(&[1, 2]);
        let gs = GroundingState::new(&p);
        let mut ss = SolverState::new();
        let tripped = CancelToken::new();
        tripped.cancel();
        match resolve_on_state(&gs, &mut ss, &tripped) {
            Err(AspError::Interrupted { partial, .. }) => assert_eq!(partial, 0),
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // The same state finishes the job under a fresh token.
        let fresh = CancelToken::never();
        let got = resolve(&gs, &mut ss, &fresh);
        assert_eq!(got, stable_models(gs.ground_program()));
    }

    #[test]
    fn negation_across_a_component_is_respected() {
        // a ← not b. b ← not a. in one component, plus an unrelated fact
        // family: the product must interleave correctly.
        let mut p = Program::new();
        p.pred("a", 0).unwrap();
        p.pred("b", 0).unwrap();
        p.rule([atom("a", [])], [neg(atom("b", []))]).unwrap();
        p.rule([atom("b", [])], [neg(atom("a", []))]).unwrap();
        p.fact("r", [i(1)]).unwrap();
        p.pred("q", 1).unwrap();
        p.rule(
            [atom("p", [tv("x")]), atom("q", [tv("x")])],
            [pos(atom("r", [tv("x")]))],
        )
        .unwrap();
        let gs = GroundingState::new(&p);
        let expected = stable_models(gs.ground_program());
        assert_eq!(expected.len(), 4);
        assert_eq!(resolve_fresh(&gs), expected);
    }
}
