//! Repair enumeration by violation-driven decision search.
//!
//! A branch state is the original instance plus a set of *decisions*
//! (`atom ↦` a [`RepairAction`]). The loop picks a violation of the
//! current instance (deterministic order) and branches over its minimal
//! fixes:
//!
//! * form-(1) violation with assignment σ — delete any one matched ground
//!   body atom, or insert any one consequent atom instantiated with σ at
//!   the universal positions and `null` at the existential positions (the
//!   paper's null-privileging repair steps; value-insertions are `≤_D`-
//!   dominated by null-insertions, Example 17);
//! * denial / check violation — deletions only (nothing to insert);
//! * NOT NULL violation — delete the offending tuple.
//!
//! Decisions never flip (an atom once inserted is protected, once deleted
//! stays out — mirroring the program denial `← P(t_a), P(f_a)` of
//! Definition 9), which makes every branch terminate: the decided-atom set
//! grows monotonically inside the finite Proposition-1 universe.
//! Fixpoints are consistent candidates; the result is their
//! `≤_D`-minimisation. The engine is validated against the brute-force
//! oracle in the property suite.
//!
//! ## Incremental search
//!
//! The naive loop re-scans the *whole instance* for a violation at every
//! search node — O(data) per node even when only one atom changed. The
//! search instead carries a **violation worklist** down the tree:
//!
//! * the root worklist is the full violation set (index-probed scan);
//! * each branch applies its single-atom decision as a [`Delta`] *in
//!   place* (fixpoints record their decision delta instead of snapshotting,
//!   so the relation `Arc`s stay unshared and every in-place change is
//!   O(log n), never a copy-on-write of the instance), appends the
//!   violations touching that delta
//!   ([`cqa_constraints::violations_touching`]), and recurses;
//! * on entry a node lazily re-validates worklist entries
//!   ([`cqa_constraints::violation_active`]) until it finds a live one to
//!   branch on — entries invalidated by ancestor decisions drop out here;
//! * on exit the branch delta is reverted.
//!
//! Per-node cost is therefore bounded by the conflict neighbourhood of one
//! change, not by instance size — the operational form of the paper's
//! observation that repairs differ from `D` only inside the Proposition-1
//! universe.
//!
//! The post-search pipeline is delta-based too: every fixpoint records its
//! decision delta (which *is* Δ(D, candidate), since decisions never flip),
//! so candidate de-duplication and `≤_D`-minimisation
//! ([`crate::repair::minimal_delta_indices`]) compare symmetric
//! differences in O(Δ) per pair instead of recomputing Δ against — or
//! comparing — full instances. The pipeline ends in one crate-internal
//! call that hands out the repairs *as Δs*, in discovery order:
//!
//! * [`repairs`] and its siblings materialise each repair (base + Δ) and
//!   sort by atom list — the public, pinned order;
//! * enumeration CQA ([`crate::cqa`]) never materialises: it applies each
//!   Δ to one working copy of D, evaluates the query and reverts the Δ, so
//!   a read costs the search plus one evaluation per repair, not a copy
//!   and an atom-list sort per repair.
//!
//! The search, the post-search pipeline and enumeration CQA all run on the
//! calling thread.
//!
//! The root violation scan — the one remaining O(instance) step — is
//! cached across `repairs*` calls keyed by [`Instance::version`] and the
//! constraint set, so repeated enumeration over an unchanged instance
//! starts from the conflict set directly. The cache lives in the
//! caller's [`CqaCaches`] bundle, passed to the `*_governed` forms (the
//! `Database` facade owns one per database). The one-shot forms
//! [`repairs`] and [`repairs_with_trace`] build a fresh bundle per call.

use crate::cache::CqaCaches;
use crate::error::{CoreError, InterruptPhase};
use crate::repair::minimal_delta_indices;
use cqa_constraints::{
    violation_active, violations_touching, Constraint, IcSet, SatMode, Term, Violation,
    ViolationKind,
};
use cqa_relational::{CancelToken, DatabaseAtom, Delta, Instance, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Which repair semantics to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairSemantics {
    /// The paper's null-based semantics (Definitions 6–7). Requires a
    /// non-conflicting constraint set; conflicting sets are rejected with
    /// [`CoreError::ConflictingConstraints`].
    #[default]
    NullBased,
    /// `Rep_d`: NOT-NULL-conflicting referential violations are repaired
    /// by deletion only (the paper's remark after Example 20). Accepts
    /// conflicting sets.
    DeletionPreferring,
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Semantics variant.
    pub semantics: RepairSemantics,
    /// Maximum number of search nodes (branches are exponential in the
    /// number of interacting violations).
    pub node_budget: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            semantics: RepairSemantics::NullBased,
            node_budget: 1 << 22,
        }
    }
}

/// What a repair step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// The atom was inserted (a `t_a` decision).
    Insert,
    /// The atom was deleted (an `f_a` decision).
    Delete,
}

/// One step of a repair derivation: which constraint fired and how the
/// violation was fixed — the "sequence of local repairs" view the paper's
/// Section 7(c) sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairStep {
    /// Name of the violated constraint.
    pub constraint: String,
    /// Insert or delete.
    pub action: RepairAction,
    /// The atom acted on.
    pub atom: DatabaseAtom,
}

/// A repair together with the decision sequence that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedRepair {
    /// The repaired instance.
    pub instance: Instance,
    /// The decisions, in the order the search made them.
    pub steps: Vec<RepairStep>,
}

/// All repairs of `d` wrt `ics` (Definition 7), one-shot: a fresh
/// [`CqaCaches`] bundle and no deadline. Callers that repeat calls, or
/// need a deadline, use [`repairs_with_config_governed`].
pub fn repairs(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
) -> Result<Vec<Instance>, CoreError> {
    repairs_with_config_governed(d, ics, config, &CqaCaches::new(), &CancelToken::never())
}

/// [`repairs`] against the caller's cache bundle and under a
/// cancellation token (see [`repairs_with_trace_governed`]).
pub fn repairs_with_config_governed(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<Instance>, CoreError> {
    Ok(repairs_with_trace_governed(d, ics, config, caches, cancel)?
        .into_iter()
        .map(|t| t.instance)
        .collect())
}

/// All repairs with the decision sequences that produced them
/// (provenance; the paper's Section 7(b)/(c) hooks), one-shot like
/// [`repairs`].
pub fn repairs_with_trace(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
) -> Result<Vec<TracedRepair>, CoreError> {
    repairs_with_trace_governed(d, ics, config, &CqaCaches::new(), &CancelToken::never())
}

/// [`repairs_with_trace`] against the caller's cache bundle and under a
/// cancellation token. Every search node polls `cancel`; a tripped token
/// surfaces as
/// [`CoreError::Interrupted`] with `phase = RepairSearch` and `partial`
/// counting the candidate repairs collected before the interrupt.
pub fn repairs_with_trace_governed(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<TracedRepair>, CoreError> {
    let minimal = minimal_repair_deltas(d, ics, config, caches, cancel)?;
    Ok(materialise(d, &minimal))
}

/// The repairs of `d` as Δ(D, repair), each with the trace that first
/// found it: the search's candidates deduplicated and `≤_D`-minimised, in
/// depth-first discovery order. Nothing is materialised, so callers that
/// only need each repair's answers (enumeration CQA) apply each Δ to one
/// working copy of `d` instead of building an instance per repair.
///
/// Deduplication keeps the first-found trace of a duplicated delta, and
/// is by decision delta — against one base, equal deltas mean equal
/// instances. The search tracked each candidate's delta, so neither
/// deduplication nor minimisation ever recomputes Δ(D, candidate) against
/// the full instance: both are O(Δ) per comparison.
pub(crate) fn minimal_repair_deltas(
    d: &Instance,
    ics: &IcSet,
    config: RepairConfig,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<(Delta, Vec<RepairStep>)>, CoreError> {
    if config.semantics == RepairSemantics::NullBased && !ics.is_non_conflicting() {
        return Err(CoreError::ConflictingConstraints(ics.conflicting_pairs()));
    }
    let mut search = Search {
        ics,
        config,
        nodes: 0,
        candidates: Vec::new(),
        cancel: cancel.clone(),
    };
    let mut work = d.clone();
    let worklist = caches.worklist.root_worklist(&work, ics);
    let (decisions, trace) = (&mut BTreeMap::new(), &mut Vec::new());
    search.run_incremental(&mut work, worklist, None, decisions, trace)?;
    let mut unique: Vec<(Delta, Vec<RepairStep>)> = Vec::new();
    let mut seen: BTreeSet<Delta> = BTreeSet::new();
    for (delta, steps) in search.candidates {
        if seen.insert(delta.clone()) {
            unique.push((delta, steps));
        }
    }
    let deltas: Vec<Delta> = unique.iter().map(|(dl, _)| dl.clone()).collect();
    let mut keep = minimal_delta_indices(&deltas).into_iter().peekable();
    Ok(unique
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.next_if_eq(i).is_some())
        .map(|(_, candidate)| candidate)
        .collect())
}

/// Materialise the minimal repairs (base + Δ) and pin the public order:
/// by atom list. Distinct repairs have distinct atom lists (equal-delta
/// candidates were deduplicated), so the order is total.
fn materialise(d: &Instance, minimal: &[(Delta, Vec<RepairStep>)]) -> Vec<TracedRepair> {
    let mut keyed: Vec<(Vec<DatabaseAtom>, TracedRepair)> = minimal
        .iter()
        .map(|(delta, steps)| {
            let mut instance = d.clone();
            instance.apply_delta(delta);
            let key: Vec<DatabaseAtom> = instance.atoms().collect();
            let repair = TracedRepair {
                instance,
                steps: steps.clone(),
            };
            (key, repair)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, repair)| repair).collect()
}

/// The symmetric difference a decision set denotes: decisions never flip
/// and inserts/deletes are only ever applied to absent/present atoms, so
/// the decision map *is* Δ(D, current) at every fixpoint.
fn delta_of(decisions: &BTreeMap<DatabaseAtom, RepairAction>) -> Delta {
    let mut delta = Delta::default();
    for (atom, decision) in decisions {
        match decision {
            RepairAction::Insert => {
                delta.inserted.insert(atom.clone());
            }
            RepairAction::Delete => {
                delta.removed.insert(atom.clone());
            }
        }
    }
    delta
}

struct Search<'a> {
    ics: &'a IcSet,
    config: RepairConfig,
    nodes: usize,
    /// Consistent fixpoints: each candidate's decision delta (which *is*
    /// Δ(D, candidate), since decisions never flip) and the decision trace
    /// that produced it. Candidates are *not* snapshotted — cloning at a
    /// fixpoint would share the relation/index `Arc`s and turn the
    /// parent's next in-place delta into an O(instance) copy-on-write.
    candidates: Vec<(Delta, Vec<RepairStep>)>,
    /// Governor token, polled once per charged search node.
    cancel: CancelToken,
}

impl Search<'_> {
    fn charge_node(&mut self) -> Result<(), CoreError> {
        if self.cancel.is_cancelled() {
            return Err(CoreError::Interrupted {
                phase: InterruptPhase::RepairSearch,
                partial: self.candidates.len(),
            });
        }
        self.nodes += 1;
        if self.nodes > self.config.node_budget {
            return Err(CoreError::BudgetExceeded {
                budget: self.config.node_budget,
            });
        }
        Ok(())
    }

    /// Incremental search: the worklist carries every violation that may
    /// still be live; each node re-validates lazily until it finds one to
    /// branch on ([`expand`]), and each branch applies its single-atom
    /// delta to `current` in place, recurses with that delta as the
    /// child's `touch`, and reverts it.
    fn run_incremental(
        &mut self,
        current: &mut Instance,
        worklist: Vec<Violation>,
        touch: Option<&Delta>,
        decisions: &mut BTreeMap<DatabaseAtom, RepairAction>,
        trace: &mut Vec<RepairStep>,
    ) -> Result<(), CoreError> {
        self.charge_node()?;
        let semantics = self.config.semantics;
        let Some((branches, rest)) =
            expand(current, self.ics, semantics, worklist, touch, decisions)
        else {
            self.candidates.push((delta_of(decisions), trace.clone()));
            return Ok(());
        };
        for (delta, step) in branches {
            let atom = step.atom.clone();
            let fresh = !decisions.contains_key(&atom);
            if fresh {
                decisions.insert(atom.clone(), step.action);
            }
            trace.push(step);
            current.apply_delta(&delta);
            let res = self.run_incremental(current, rest.clone(), Some(&delta), decisions, trace);
            current.revert_delta(&delta);
            trace.pop();
            if fresh {
                decisions.remove(&atom);
            }
            res?;
        }
        Ok(())
    }
}

/// One viable fix of a node's live violation: its single-atom delta and
/// the step the trace records.
type Branch = (Delta, RepairStep);

/// Expand one search node. Extend the inherited `worklist` with the
/// violations touching `touch` (the delta that created the node, already
/// applied to `current`; `None` at the root), then revalidate it lazily
/// until one violation is live. `None` means none is: the node is a
/// consistent fixpoint. Otherwise return the live violation's viable
/// branches in fix order and the rest of the worklist, which every child
/// inherits.
fn expand(
    current: &Instance,
    ics: &IcSet,
    semantics: RepairSemantics,
    mut worklist: Vec<Violation>,
    touch: Option<&Delta>,
    decisions: &BTreeMap<DatabaseAtom, RepairAction>,
) -> Option<(Vec<Branch>, Vec<Violation>)> {
    if let Some(delta) = touch {
        for v in violations_touching(current, ics, delta, SatMode::NullAware) {
            if !worklist.contains(&v) {
                worklist.push(v);
            }
        }
    }
    let mut pending = worklist.into_iter();
    // Entries fixed by an ancestor decision drop out here.
    let violation = pending.find(|v| violation_active(current, ics, v, SatMode::NullAware))?;
    let rest: Vec<Violation> = pending.collect();
    let constraint = ics.constraints()[violation.constraint_index].name();
    let mut branches = Vec::new();
    for fix in fixes_for(ics, semantics, &violation) {
        let (action, atom) = match fix {
            Fix::Delete(atom) => (RepairAction::Delete, atom),
            Fix::Insert(atom) => (RepairAction::Insert, atom),
        };
        // Decisions never flip: an inserted atom is protected, a deleted
        // one is ruled out on this branch.
        if decisions.get(&atom).is_some_and(|&made| made != action) {
            continue;
        }
        let delta = match action {
            RepairAction::Insert => {
                debug_assert!(
                    !current.contains(&atom),
                    "insert fix must not already be present"
                );
                Delta::insertion(atom.clone())
            }
            RepairAction::Delete => Delta::deletion(atom.clone()),
        };
        let step = RepairStep {
            constraint: constraint.to_string(),
            action,
            atom,
        };
        branches.push((delta, step));
    }
    Some((branches, rest))
}

/// The minimal fixes for a violation, in deterministic order: deletions
/// (body order), then insertions (head order).
fn fixes_for(ics: &IcSet, semantics: RepairSemantics, violation: &Violation) -> Vec<Fix> {
    let mut out: Vec<Fix> = Vec::new();
    match &violation.kind {
        ViolationKind::NotNull { atom, .. } => {
            out.push(Fix::Delete(atom.clone()));
        }
        ViolationKind::Tgd {
            bindings,
            body_atoms,
        } => {
            for atom in body_atoms {
                let fix = Fix::Delete(atom.clone());
                if !out.contains(&fix) {
                    out.push(fix);
                }
            }
            let ic = ics.constraints()[violation.constraint_index]
                .as_ic()
                .expect("Tgd violation indexes a form-(1) constraint");
            for head in ic.head() {
                let tuple: Tuple = head
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => bindings[v.index()].unwrap_or(Value::Null),
                    })
                    .collect();
                let atom = DatabaseAtom::new(head.rel, tuple);
                if semantics == RepairSemantics::DeletionPreferring
                    && insert_violates_nnc(ics, &atom)
                {
                    continue;
                }
                let fix = Fix::Insert(atom);
                if !out.contains(&fix) {
                    out.push(fix);
                }
            }
        }
    }
    out
}

fn insert_violates_nnc(ics: &IcSet, atom: &DatabaseAtom) -> bool {
    ics.constraints().iter().any(|c| match c {
        Constraint::NotNull(nnc) => nnc.rel == atom.rel && atom.tuple.get(nnc.position).is_null(),
        Constraint::Tgd(_) => false,
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Fix {
    Delete(DatabaseAtom),
    Insert(DatabaseAtom),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{builders, c, is_consistent, v, CmpOp, Ic};
    use cqa_relational::{display::instance_set, null, s, Schema};
    use std::sync::Arc;

    fn inst(sc: &Arc<Schema>, rows: &[(&str, Vec<Value>)]) -> Instance {
        let mut d = Instance::empty(sc.clone());
        for (rel, vals) in rows {
            d.insert_named(rel, Tuple::new(vals.clone())).unwrap();
        }
        d
    }

    fn sets(repairs: &[Instance]) -> Vec<String> {
        repairs.iter().map(instance_set).collect()
    }

    #[test]
    fn consistent_database_is_its_own_single_repair() {
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(&sc, &[("P", vec![s("a"), null()])]);
        let ics = IcSet::default();
        assert_eq!(repairs(&d, &ics, RepairConfig::default()).unwrap(), vec![d]);
    }

    #[test]
    fn example15_course_student_two_repairs() {
        // Course(ID, Code) → ∃Name Student(ID, Name); Course(34, C18)
        // dangling: delete it or insert Student(34, null).
        let sc = Schema::builder()
            .relation("Course", ["ID", "Code"])
            .relation("Student", ["ID", "Name"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("Course", vec![s("21"), s("C15")]),
                ("Course", vec![s("34"), s("C18")]),
                ("Student", vec![s("21"), s("Ann")]),
                ("Student", vec![s("45"), s("Paul")]),
            ],
        );
        let ric = Ic::builder(&sc, "ric")
            .body_atom("Course", [v("id"), v("code")])
            .head_atom("Student", [v("id"), v("name")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ric)]);
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        assert_eq!(reps.len(), 2);
        let rendered = sets(&reps);
        assert!(rendered
            .iter()
            .any(|r| !r.contains("Course(34, C18)") && !r.contains("Student(34")));
        assert!(rendered
            .iter()
            .any(|r| r.contains("Course(34, C18)") && r.contains("Student(34, null)")));
        for r in &reps {
            assert!(is_consistent(r, &ics));
        }
    }

    #[test]
    fn example16_two_repairs() {
        // D = {Q(a,b), P(a,c)}; ψ1: P(x,y) → ∃z Q(x,z); ψ2: Q(x,y) → y ≠ b.
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("Q", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[("P", vec![s("a"), s("c")]), ("Q", vec![s("a"), s("b")])],
        );
        let psi1 = Ic::builder(&sc, "psi1")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("Q", [v("x"), v("z")])
            .finish()
            .unwrap();
        let psi2 = Ic::builder(&sc, "psi2")
            .body_atom("Q", [v("x"), v("y")])
            .builtin(v("y"), CmpOp::Neq, c(s("b")))
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(psi1), Constraint::from(psi2)]);
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let rendered = sets(&reps);
        assert_eq!(reps.len(), 2, "{rendered:?}");
        assert!(rendered.contains(&"{}".to_string()));
        assert!(rendered.contains(&"{P(a, c), Q(a, null)}".to_string()));
    }

    #[test]
    fn example17_two_repairs() {
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("P", vec![s("a"), null()]),
                ("P", vec![s("b"), s("c")]),
                ("R", vec![s("a"), s("b")]),
            ],
        );
        let ric = Ic::builder(&sc, "ric")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x"), v("z")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ric)]);
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let rendered = sets(&reps);
        assert_eq!(reps.len(), 2, "{rendered:?}");
        assert!(rendered.contains(&"{P(a, null), P(b, c), R(a, b), R(b, null)}".to_string()));
        assert!(rendered.contains(&"{P(a, null), R(a, b)}".to_string()));
    }

    #[test]
    fn example18_cyclic_rics_four_repairs() {
        // UIC: P(x,y) → T(x); RIC: T(x) → ∃y P(y,x);
        // D = {P(a,b), P(null,a), T(c)}.
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("T", ["t"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("P", vec![s("a"), s("b")]),
                ("P", vec![null(), s("a")]),
                ("T", vec![s("c")]),
            ],
        );
        let uic = Ic::builder(&sc, "uic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("T", [v("x")])
            .finish()
            .unwrap();
        let ric = Ic::builder(&sc, "ric")
            .body_atom("T", [v("x")])
            .head_atom("P", [v("y"), v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(uic), Constraint::from(ric)]);
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let rendered = sets(&reps);
        assert_eq!(reps.len(), 4, "{rendered:?}");
        assert!(rendered.contains(&"{P(null, a), P(null, c), P(a, b), T(a), T(c)}".to_string()));
        assert!(rendered.contains(&"{P(null, a), P(a, b), T(a)}".to_string()));
        assert!(rendered.contains(&"{P(null, a), P(null, c), T(c)}".to_string()));
        assert!(rendered.contains(&"{P(null, a)}".to_string()));
    }

    #[test]
    fn example19_key_fk_nnc_four_repairs() {
        // R(X,Y) with key R[1]; S(U,V) with S[2] → R[1]; NNC on R[1].
        let sc = Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U", "V"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("R", vec![s("a"), s("b")]),
                ("R", vec![s("a"), s("c")]),
                ("S", vec![s("e"), s("f")]),
                ("S", vec![null(), s("a")]),
            ],
        );
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        ics.push(builders::not_null(&sc, "R", 0).unwrap());
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let rendered = sets(&reps);
        assert_eq!(reps.len(), 4, "{rendered:?}");
        assert!(rendered.contains(&"{R(a, b), R(f, null), S(null, a), S(e, f)}".to_string()));
        assert!(rendered.contains(&"{R(a, c), R(f, null), S(null, a), S(e, f)}".to_string()));
        assert!(rendered.contains(&"{R(a, b), S(null, a)}".to_string()));
        assert!(rendered.contains(&"{R(a, c), S(null, a)}".to_string()));
    }

    #[test]
    fn example20_conflicting_set_rejected_then_handled_by_repd() {
        // P(x) → ∃y Q(x,y) with NNC on Q[2].
        let sc = Schema::builder()
            .relation("P", ["a"])
            .relation("Q", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("P", vec![s("a")]),
                ("P", vec![s("b")]),
                ("Q", vec![s("b"), s("c")]),
            ],
        );
        let ric = Ic::builder(&sc, "ric")
            .body_atom("P", [v("x")])
            .head_atom("Q", [v("x"), v("y")])
            .finish()
            .unwrap();
        let mut ics = IcSet::default();
        ics.push(ric);
        ics.push(builders::not_null(&sc, "Q", 1).unwrap());
        assert!(matches!(
            repairs(&d, &ics, RepairConfig::default()),
            Err(CoreError::ConflictingConstraints(_))
        ));
        let reps = repairs(
            &d,
            &ics,
            RepairConfig {
                semantics: RepairSemantics::DeletionPreferring,
                ..RepairConfig::default()
            },
        )
        .unwrap();
        // Rep_d: only the deletion repair {P(b), Q(b,c)}.
        assert_eq!(sets(&reps), vec!["{P(b), Q(b, c)}".to_string()]);
    }

    #[test]
    fn chase_through_uic_chain() {
        // S(x) → Q(x), Q(x) → R(x); D = {S(a)}: repairs are {}, plus the
        // full chain {S(a), Q(a), R(a)}, plus… deleting the inserted Q is
        // blocked, so intermediate states don't leak out.
        let sc = Schema::builder()
            .relation("S", ["s"])
            .relation("Q", ["q"])
            .relation("R", ["r"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(&sc, &[("S", vec![s("a")])]);
        let ic1 = Ic::builder(&sc, "ic1")
            .body_atom("S", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let ic2 = Ic::builder(&sc, "ic2")
            .body_atom("Q", [v("x")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic1), Constraint::from(ic2)]);
        let reps = repairs(&d, &ics, RepairConfig::default()).unwrap();
        let rendered = sets(&reps);
        assert_eq!(
            rendered,
            vec!["{}".to_string(), "{S(a), Q(a), R(a)}".to_string()]
        );
    }

    #[test]
    fn budget_exceeded_reported() {
        let sc = Schema::builder()
            .relation("P", ["a"])
            .relation("Q", ["x"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        for i in 0..6 {
            d.insert_named("P", [s(&format!("v{i}"))]).unwrap();
        }
        let ic = Ic::builder(&sc, "incl")
            .body_atom("P", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        let err = repairs(
            &d,
            &ics,
            RepairConfig {
                node_budget: 3,
                ..RepairConfig::default()
            },
        );
        assert!(matches!(err, Err(CoreError::BudgetExceeded { .. })));
    }

    #[test]
    fn traces_explain_each_repair() {
        // Example 15 shape: the deletion repair is one step, the
        // insertion repair one step; steps name the violated constraint.
        let sc = Schema::builder()
            .relation("Course", ["ID", "Code"])
            .relation("Student", ["ID", "Name"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("Course", vec![s("34"), s("C18")]),
                ("Student", vec![s("21"), s("Ann")]),
            ],
        );
        let ric = Ic::builder(&sc, "enrolled")
            .body_atom("Course", [v("id"), v("code")])
            .head_atom("Student", [v("id"), v("name")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ric)]);
        let traced = repairs_with_trace(&d, &ics, RepairConfig::default()).unwrap();
        assert_eq!(traced.len(), 2);
        for t in &traced {
            assert_eq!(t.steps.len(), 1);
            assert_eq!(t.steps[0].constraint, "enrolled");
            // replaying the steps on D yields the repair
            let mut replay = d.clone();
            for step in &t.steps {
                match step.action {
                    RepairAction::Insert => {
                        replay
                            .insert(step.atom.rel, step.atom.tuple.clone())
                            .unwrap();
                    }
                    RepairAction::Delete => {
                        replay.remove(step.atom.rel, &step.atom.tuple);
                    }
                }
            }
            assert_eq!(&replay, &t.instance);
        }
        let actions: Vec<RepairAction> = traced.iter().map(|t| t.steps[0].action).collect();
        assert!(actions.contains(&RepairAction::Insert));
        assert!(actions.contains(&RepairAction::Delete));
    }

    #[test]
    fn engine_matches_oracle_on_small_cases() {
        // Deterministic mini-stress: engine vs brute force on several
        // hand-picked shapes with unary/binary relations.
        let sc = Schema::builder()
            .relation("P", ["a"])
            .relation("Q", ["x"])
            .finish()
            .unwrap()
            .into_shared();
        let incl = Ic::builder(&sc, "incl")
            .body_atom("P", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let denial = Ic::builder(&sc, "den")
            .body_atom("P", [v("x")])
            .body_atom("Q", [v("x")])
            .finish()
            .unwrap();
        for ics in [
            IcSet::new([Constraint::from(incl.clone())]),
            IcSet::new([Constraint::from(denial.clone())]),
            IcSet::new([Constraint::from(incl), Constraint::from(denial)]),
        ] {
            for rows in [
                vec![("P", vec![s("a")])],
                vec![("P", vec![s("a")]), ("Q", vec![s("a")])],
                vec![("P", vec![null()]), ("Q", vec![s("a")])],
                vec![
                    ("P", vec![s("a")]),
                    ("P", vec![null()]),
                    ("Q", vec![null()]),
                ],
            ] {
                let d = inst(&sc, &rows);
                let engine = repairs(&d, &ics, RepairConfig::default()).unwrap();
                let oracle = crate::bruteforce::oracle_repairs(&d, &ics);
                assert_eq!(engine, oracle, "rows={rows:?}");
            }
        }
    }
}
