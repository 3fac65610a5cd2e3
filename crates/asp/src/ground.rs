//! Intelligent grounding: instantiate a non-ground program over its
//! possibly-true Herbrand subset.
//!
//! Phase 1 computes the *possibly-true* atom set `PT`: the least fixpoint
//! of the rules with negative literals ignored (an over-approximation of
//! every atom that can be true in any stable model). Phase 2 re-instantiates
//! each rule against `PT`, evaluating builtins and resolving negative
//! literals whose atoms are definitely false (`∉ PT`), and emits ground
//! rules over dense atom ids. Tautological instances (a head atom also in
//! the positive body) are dropped.
//!
//! [`ground`] performs both phases from scratch in one call — it is the
//! simple reference grounder and the oracle the incremental path is tested
//! against.
//!
//! ## Incremental grounding architecture
//!
//! [`GroundingState`] is the *persistent*, delta-driven counterpart: it
//! grounds once and then accepts fact deltas, regrounding only the rules
//! touching the delta (mirroring `violations_touching` in the constraint
//! layer). The moving parts:
//!
//! * **Rule occurrence indexes.** Every predicate maps to the list of
//!   (rule, body-literal) positions where it occurs positively and
//!   negatively. A delta atom visits exactly the rules that mention its
//!   predicate — never the whole program.
//! * **Seminaive delta substitution.** A worklist carries newly derived
//!   possibly-true atoms. Popping an atom pins it into each positive
//!   occurrence and joins the *remaining* body literals against the full
//!   `PT` set — the standard seminaive discipline, with the binding set
//!   `instances[rule]` absorbing duplicate derivations. New head atoms
//!   entering `PT` go back on the worklist, so one fact delta propagates
//!   in cost proportional to its derivation cone. The join is the
//!   workspace's one join, [`cqa_relational::Join`], in body order over
//!   `PT` as its source, seeded by binding the pinned row and skipping
//!   its literal. A body atom whose leading arguments are bound lists only
//!   the `PT` rows in the range that starts at that prefix, so a key-first
//!   join such as the FD rule `R(x, y), R(x, z)` reads one key's rows, not
//!   the whole relation; an atom whose arguments are all bound is one
//!   membership test.
//! * **Refcounted resolved-rule store.** The emitted [`GroundProgram`] is
//!   maintained *in place*: every satisfying binding resolves to a ground
//!   rule which is inserted with a reference count (distinct bindings can
//!   resolve to the same rule). When an atom newly enters `PT`, negative
//!   literals that previously resolved to "definitely false → dropped"
//!   become live: the affected bindings are re-enumerated through the
//!   negative occurrence index, their stale resolution is retracted
//!   (refcount-exact, so a rule shared with an unaffected binding
//!   survives) and the patched resolution emitted. `ground_program()` is
//!   therefore O(1) — there is no materialisation step to re-run.
//! * **Support refcounts.** Alongside `PT` the state tracks, per atom,
//!   how many *derivations* currently justify it: one per occurrence as a
//!   program fact (tracked separately in a fact refcount) plus one per
//!   live binding that grounds a head to it. Insertion bumps them,
//!   deletion retracts them — they are what makes the two-pass deletion
//!   below exact.
//! * **Rule extension.** [`GroundingState::add_rule`] extends a live
//!   state with a new rule (the CQA layer appends query rules to a cached
//!   Π(D, IC) grounding), instantiating just that rule and propagating
//!   whatever its heads add to `PT`.
//!
//! ## Deletion architecture (DRed)
//!
//! `PT` is not monotone under fact removal, so deletions cannot reuse the
//! insertion worklist. [`GroundingState::remove_facts`] instead runs the
//! classic *delete–rederive* two-pass (DRed, Gupta–Mumick–Subrahmanian;
//! the same maintained-consequence-set discipline the repair-free CQA
//! line leans on):
//!
//! 1. **Over-delete.** A worklist seeds with the removed facts' atoms
//!    (their unit rules retracted, fact refcounts decremented). Popping
//!    an atom that is no longer fact-supported deletes it: surviving
//!    bindings whose *negative* literals ground to it are re-resolved
//!    through the negative occurrence index — the exact inverse of the
//!    insertion patch, flipping the literal back to "definitely false →
//!    dropped" — then the atom leaves `PT` and every binding using it
//!    *positively* (found by pinning it into the positive occurrence
//!    indexes, just like insertion) is dropped: its resolved rule is
//!    retracted refcount-exactly and each of its head atoms loses one
//!    support and joins the worklist. This deliberately over-approximates:
//!    an atom is torn down even when alternative derivations remain,
//!    which is what makes the pass sound for *cyclic* derivations (two
//!    atoms supporting only each other both reach the worklist and both
//!    fall, where a pure refcount cut-off would keep the dead loop
//!    alive). Atoms still backed by a program fact are skipped — fact
//!    support is ground and can never be part of a derivation cycle.
//!    The same reasoning generalises to a *stratification cut-off*: a
//!    predicate that sits on no positive cycle of the predicate
//!    dependency graph has well-founded support, so an atom of such a
//!    predicate with a surviving derivation is kept rather than torn
//!    down and rederived. The cut-off only defers — every support
//!    decrement re-queues the head atom — so the atom still falls the
//!    moment its last derivation does.
//! 2. **Rederive.** Every over-deleted atom whose support count is still
//!    positive has a surviving derivation (a fact occurrence or a live
//!    binding untouched by pass 1 — supports are exact here *because*
//!    pass 1 removed every binding in the deleted cone). Those survivors
//!    are re-admitted through the ordinary insertion machinery —
//!    `admit_atom` re-patches their negative occurrences and the
//!    seminaive worklist rebuilds any downstream bindings pass 1 tore
//!    down — so the cost is bounded by the delta's derivation cone, not
//!    the instance.
//!
//! The invariant tying it together: after every public call — any
//! interleaving of `add_facts`, `remove_facts` and `add_rule` — the
//! stored [`GroundProgram`] equals — as a *set* of atom-level rules
//! ([`GroundProgram::resolved_rules`]) — what [`ground`] would produce on
//! the current program. Atom ids and rule order may differ (ids are
//! assigned in discovery order, which differs between the two paths); the
//! stable-model semantics and every downstream answer are unaffected, and
//! the oracle sweep in `tests/engine_vs_program.rs` pins the equality
//! over random mixed insert/delete sequences.

use crate::error::AspError;
use crate::syntax::{AtomSpec, BodyLit, Literal, PredId, Program, Rule, RuleAtom, Term};
use cqa_relational::join::bind;
use cqa_relational::{CancelToken, Cancelled, IndexBuild, Join, Order, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::ControlFlow;

/// Dense ground-atom identifier.
pub type AtomId = u32;

/// A ground atom: predicate plus constant arguments.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundAtom {
    /// Predicate.
    pub pred: PredId,
    /// Ground arguments.
    pub args: Vec<Value>,
}

/// A ground rule over atom ids: `head ← pos, not neg`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroundRule {
    /// Disjunctive head (empty = denial).
    pub head: Vec<AtomId>,
    /// Positive body atoms.
    pub pos: Vec<AtomId>,
    /// Negated body atoms.
    pub neg: Vec<AtomId>,
}

/// The ground program: an atom table plus ground rules. Facts are rules
/// with empty bodies.
#[derive(Debug, Clone, Default)]
pub struct GroundProgram {
    atoms: Vec<GroundAtom>,
    index: HashMap<GroundAtom, AtomId>,
    /// Ground rules, deduplicated, in deterministic order.
    pub rules: Vec<GroundRule>,
}

impl GroundProgram {
    /// Register (or look up) a ground atom.
    pub fn intern(&mut self, atom: GroundAtom) -> AtomId {
        if let Some(&id) = self.index.get(&atom) {
            return id;
        }
        let id = self.atoms.len() as AtomId;
        self.atoms.push(atom.clone());
        self.index.insert(atom, id);
        id
    }

    /// Look up an atom id.
    pub fn atom_id(&self, atom: &GroundAtom) -> Option<AtomId> {
        self.index.get(atom).copied()
    }

    /// The atom for an id.
    pub fn atom(&self, id: AtomId) -> &GroundAtom {
        &self.atoms[id as usize]
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// All atoms with their ids.
    pub fn atoms(&self) -> impl Iterator<Item = (AtomId, &GroundAtom)> {
        self.atoms.iter().enumerate().map(|(i, a)| (i as AtomId, a))
    }

    /// Is every rule non-disjunctive (|head| ≤ 1)?
    pub fn is_normal(&self) -> bool {
        self.rules.iter().all(|r| r.head.len() <= 1)
    }

    /// Add a rule (dedup is the caller's concern; [`ground`] dedups).
    pub fn push_rule(&mut self, rule: GroundRule) {
        self.rules.push(rule);
    }
}

/// Ground `program`.
pub fn ground(program: &Program) -> GroundProgram {
    ground_cancellable(program, &CancelToken::never())
        .expect("never-token grounding cannot be cancelled")
}

/// [`ground`] under a cancellation token, polled once per seminaive
/// fixpoint round (phase 1) and once per rule family during emission
/// (phase 2). Scratch grounding owns all its state, so a cancelled run
/// is simply abandoned — nothing shared is left half-built.
pub fn ground_cancellable(
    program: &Program,
    cancel: &CancelToken,
) -> Result<GroundProgram, Cancelled> {
    let mut gp = GroundProgram::default();

    // Possibly-true set, indexed by predicate for joins.
    let mut pt_by_pred: Vec<BTreeSet<Vec<Value>>> = vec![BTreeSet::new(); program.pred_count()];
    for (pred, args) in program.facts() {
        pt_by_pred[pred.index()].insert(args.clone());
    }

    // Phase 1: least fixpoint ignoring negation. New head atoms are
    // buffered per round (the join borrows the possibly-true set).
    loop {
        cancel.check()?;
        let mut buffer: Vec<(PredId, Vec<Value>)> = Vec::new();
        for rule in program.rules() {
            instantiate(rule, &pt_by_pred, &mut |bindings| {
                for h in &rule.head {
                    let args = ground_args(&h.terms, bindings);
                    if !pt_by_pred[h.pred.index()].contains(&args) {
                        buffer.push((h.pred, args));
                    }
                }
            });
        }
        let mut grew = false;
        for (pred, args) in buffer {
            if pt_by_pred[pred.index()].insert(args) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Phase 2: emit ground rules. Facts first (stable ids for facts).
    let mut seen_rules: BTreeSet<GroundRule> = BTreeSet::new();
    for (pred, args) in program.facts() {
        let id = gp.intern(GroundAtom {
            pred: *pred,
            args: args.clone(),
        });
        let rule = GroundRule {
            head: vec![id],
            pos: vec![],
            neg: vec![],
        };
        if seen_rules.insert(rule.clone()) {
            gp.push_rule(rule);
        }
    }
    for rule in program.rules() {
        cancel.check()?;
        // Capture instantiations first (interning needs &mut gp).
        let mut instances: Vec<Vec<Value>> = Vec::new();
        instantiate(rule, &pt_by_pred, &mut |bindings| {
            instances.push(bindings.iter().map(|b| (*b).expect("safe rule")).collect());
        });
        'instances: for bindings in instances {
            let opt: Vec<Option<Value>> = bindings.into_iter().map(Some).collect();
            let mut head = Vec::with_capacity(rule.head.len());
            for h in &rule.head {
                let args = ground_args(&h.terms, &opt);
                head.push(gp.intern(GroundAtom { pred: h.pred, args }));
            }
            let mut pos_ids = Vec::new();
            let mut neg_ids = Vec::new();
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => {
                        let args = ground_args(&a.terms, &opt);
                        pos_ids.push(gp.intern(GroundAtom { pred: a.pred, args }));
                    }
                    Literal::Neg(a) => {
                        let args = ground_args(&a.terms, &opt);
                        if pt_by_pred[a.pred.index()].contains(&args) {
                            neg_ids.push(gp.intern(GroundAtom { pred: a.pred, args }));
                        }
                        // else: definitely false → literal true → drop.
                    }
                    Literal::Cmp(..) => {} // evaluated during instantiation
                }
            }
            // Tautology: head atom in positive body.
            for h in &head {
                if pos_ids.contains(h) {
                    continue 'instances;
                }
            }
            head.sort_unstable();
            head.dedup();
            pos_ids.sort_unstable();
            pos_ids.dedup();
            neg_ids.sort_unstable();
            neg_ids.dedup();
            let grule = GroundRule {
                head,
                pos: pos_ids,
                neg: neg_ids,
            };
            if seen_rules.insert(grule.clone()) {
                gp.push_rule(grule);
            }
        }
    }
    Ok(gp)
}

fn ground_args(terms: &[Term], bindings: &[Option<Value>]) -> Vec<Value> {
    terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => *c,
            Term::Var(v) => bindings[*v as usize].expect("variable bound by safety"),
        })
        .collect()
}

/// Enumerate all substitutions satisfying the positive body against `pt`
/// and all builtins; negative literals are ignored here.
fn instantiate(rule: &Rule, pt: &[BTreeSet<Vec<Value>>], f: &mut impl FnMut(&[Option<Value>])) {
    let positives: Vec<&crate::syntax::RuleAtom> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    let mut bindings: Vec<Option<Value>> = vec![None; rule.var_names.len()];
    rec(rule, &positives, pt, 0, &mut bindings, f);

    fn rec(
        rule: &Rule,
        positives: &[&crate::syntax::RuleAtom],
        pt: &[BTreeSet<Vec<Value>>],
        depth: usize,
        bindings: &mut Vec<Option<Value>>,
        f: &mut impl FnMut(&[Option<Value>]),
    ) {
        if depth == positives.len() {
            // All variables bound (safety). Check builtins.
            for lit in &rule.body {
                if let Literal::Cmp(op, l, r) = lit {
                    let lv = term_val(l, bindings);
                    let rv = term_val(r, bindings);
                    if !op.eval(lv, rv) {
                        return;
                    }
                }
            }
            f(bindings);
            return;
        }
        let atom = positives[depth];
        'rows: for row in &pt[atom.pred.index()] {
            let mut newly: Vec<u32> = Vec::new();
            for (val, term) in row.iter().zip(&atom.terms) {
                match term {
                    Term::Const(c) => {
                        if val != c {
                            undo(bindings, &newly);
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => match &bindings[*v as usize] {
                        Some(b) => {
                            if b != val {
                                undo(bindings, &newly);
                                continue 'rows;
                            }
                        }
                        None => {
                            bindings[*v as usize] = Some(*val);
                            newly.push(*v);
                        }
                    },
                }
            }
            rec(rule, positives, pt, depth + 1, bindings, f);
            undo(bindings, &newly);
        }
    }

    fn term_val<'a>(t: &'a Term, bindings: &'a [Option<Value>]) -> &'a Value {
        match t {
            Term::Const(c) => c,
            Term::Var(v) => bindings[*v as usize].as_ref().expect("bound by safety"),
        }
    }

    fn undo(bindings: &mut [Option<Value>], newly: &[u32]) {
        for v in newly {
            bindings[*v as usize] = None;
        }
    }
}

/// Atom-level (id-free) view of one ground rule: `(head, pos, neg)`,
/// each sorted. Two grounders agree exactly when their
/// [`GroundProgram::resolved_rules`] sets are equal.
pub type ResolvedRule = (Vec<GroundAtom>, Vec<GroundAtom>, Vec<GroundAtom>);

impl GroundProgram {
    /// The rule set resolved to atom level, for cross-grounder comparison
    /// (atom ids are assigned in discovery order, so id-level rule sets of
    /// two equivalent groundings generally differ).
    pub fn resolved_rules(&self) -> BTreeSet<ResolvedRule> {
        let resolve = |ids: &[AtomId]| {
            let mut v: Vec<GroundAtom> = ids.iter().map(|&i| self.atom(i).clone()).collect();
            v.sort();
            v
        };
        self.rules
            .iter()
            .map(|r| (resolve(&r.head), resolve(&r.pos), resolve(&r.neg)))
            .collect()
    }
}

/// The body atoms of one rule, split by polarity, in body order.
#[derive(Debug, Clone)]
struct RuleInfo {
    positives: Vec<RuleAtom>,
    negatives: Vec<RuleAtom>,
}

/// What seeds a binding enumeration: nothing (full join), or one body
/// literal pinned to a concrete row.
enum Pin<'a> {
    All,
    /// Pin the `i`-th *positive* literal (index into `RuleInfo::positives`).
    Pos(usize, &'a [Value]),
    /// Pin the `i`-th *negative* literal (index into `RuleInfo::negatives`).
    Neg(usize, &'a [Value]),
}

/// A persistent, incrementally-updatable grounding of a program. See the
/// module docs ("Incremental grounding architecture") for the moving
/// parts; [`ground`] is the from-scratch reference it must agree with.
#[derive(Debug, Clone)]
pub struct GroundingState {
    program: Program,
    info: Vec<RuleInfo>,
    /// pred → [(rule, index into that rule's positives)].
    pos_occ: Vec<Vec<(usize, usize)>>,
    /// pred → [(rule, index into that rule's negatives)].
    neg_occ: Vec<Vec<(usize, usize)>>,
    /// Possibly-true rows per predicate (the seminaive fixpoint).
    pt: Vec<BTreeSet<Vec<Value>>>,
    /// Satisfying bindings (positive body + builtins over `pt`) per rule.
    instances: Vec<BTreeSet<Vec<Value>>>,
    /// Per-atom derivation count: fact occurrences plus live bindings
    /// grounding a head to the atom (absent = zero). Drives DRed pass 2.
    support: Vec<BTreeMap<Vec<Value>, u32>>,
    /// Per-atom *fact* occurrence count (a sub-count of `support`): atoms
    /// still backed by a fact are never over-deleted in DRed pass 1.
    fact_rc: Vec<BTreeMap<Vec<Value>, u32>>,
    /// The emitted ground program, maintained in place.
    gp: GroundProgram,
    /// Emitted rule → (index in `gp.rules`, reference count).
    emitted: BTreeMap<GroundRule, (usize, u32)>,
    /// Per-predicate: does the predicate sit on a *positive* cycle of the
    /// predicate dependency graph? Non-recursive predicates have
    /// well-founded (acyclic) ground support, which lets DRed pass 1 skip
    /// their teardown when a derivation survives (see `remove_facts`).
    recursive: Vec<bool>,
    /// Monotone counter of rules actually removed from `gp` (last
    /// reference retracted). Consumers holding derived artifacts (the
    /// incremental solver's learned clauses) sync against it.
    retract_seq: u64,
    /// Recent retractions, newest last: `(seq, rule)` with `seq` the value
    /// `retract_seq` took when the rule left the ground program. Capped;
    /// [`GroundingState::retractions_since`] reports a trimmed window as
    /// `None` so consumers fall back to a full resync.
    retract_log: VecDeque<(u64, GroundRule)>,
    /// Cumulative count of atoms torn down by DRed pass 1 (observability
    /// for the stratification skip; has no semantic role).
    dred_teardowns: u64,
    /// Cancellation token polled by the propagation/deletion loops.
    cancel: CancelToken,
    /// Set when `cancel` tripped mid-loop: the state is partially
    /// propagated and must be discarded, never reused.
    poisoned: bool,
}

/// Retraction-log retention: enough to span many delta batches between
/// solver syncs while bounding `GroundingState`'s clone cost.
const RETRACT_LOG_CAP: usize = 4096;

/// Bump a refcount map entry (absent = zero).
fn bump(map: &mut BTreeMap<Vec<Value>, u32>, args: &[Value]) {
    *map.entry(args.to_vec()).or_insert(0) += 1;
}

/// Drop one reference from a refcount map entry, removing it at zero.
fn unbump(map: &mut BTreeMap<Vec<Value>, u32>, args: &[Value]) {
    match map.get_mut(args) {
        Some(rc) if *rc > 1 => *rc -= 1,
        Some(_) => {
            map.remove(args);
        }
        None => debug_assert!(false, "refcount underflow"),
    }
}

impl GroundingState {
    /// Ground `program` from scratch into a persistent state.
    pub fn new(program: &Program) -> Self {
        Self::new_governed(program, CancelToken::never())
    }

    /// [`GroundingState::new`] with a cancellation token installed before
    /// the initial propagation runs. Check [`GroundingState::is_poisoned`]
    /// afterwards: a state whose build was interrupted is partial and must
    /// be discarded.
    pub fn new_governed(program: &Program, cancel: CancelToken) -> Self {
        let preds = program.pred_count();
        let mut st = GroundingState {
            program: program.clone(),
            info: Vec::new(),
            pos_occ: vec![Vec::new(); preds],
            neg_occ: vec![Vec::new(); preds],
            pt: vec![BTreeSet::new(); preds],
            instances: vec![BTreeSet::new(); program.rules().len()],
            support: vec![BTreeMap::new(); preds],
            fact_rc: vec![BTreeMap::new(); preds],
            gp: GroundProgram::default(),
            emitted: BTreeMap::new(),
            recursive: Vec::new(),
            retract_seq: 0,
            retract_log: VecDeque::new(),
            dred_teardowns: 0,
            cancel,
            poisoned: false,
        };
        for ri in 0..st.program.rules().len() {
            st.register_rule(ri);
        }
        st.compute_recursion();
        let mut work: VecDeque<(PredId, Vec<Value>)> = VecDeque::new();
        let facts: Vec<(PredId, Vec<Value>)> = st.program.facts().to_vec();
        for (pred, args) in facts {
            st.admit_fact(pred, args, &mut work);
        }
        // Rules with no positive body literals instantiate once, with the
        // empty binding (safety: such rules are variable-free).
        for ri in 0..st.program.rules().len() {
            if st.info[ri].positives.is_empty() {
                let mut found: Vec<Vec<Value>> = Vec::new();
                collect_bindings(
                    &st.program.rules()[ri],
                    &st.info[ri],
                    &st.pt,
                    Pin::All,
                    &mut found,
                );
                for binding in found {
                    st.admit_binding(ri, binding, &mut work);
                }
            }
        }
        st.propagate(&mut work);
        st
    }

    /// The current ground program. O(1): the program is maintained in
    /// place by every delta, never re-materialised.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.gp
    }

    /// The (non-ground) program this state grounds, including every fact
    /// delta applied so far.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Install (or replace) the cancellation token polled by the seminaive
    /// propagation and DRed deletion loops. Mid-loop cancellation cannot
    /// unwind — the in-place grounding would be left half-updated — so a
    /// trip instead marks the state *poisoned*; callers observe that via
    /// [`GroundingState::is_poisoned`] and rebuild from scratch.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Did a cancellation trip mid-propagation? A poisoned state's ground
    /// program is partial: discard the state (and any cache entry holding
    /// it) instead of reusing it.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Add ground facts, regrounding incrementally: only rules whose body
    /// mentions a predicate reachable from the delta are touched. On
    /// error nothing is applied — the whole batch is validated before any
    /// state is touched, so the `gp == ground(program)` invariant of the
    /// module docs survives a failed call.
    pub fn add_facts(
        &mut self,
        facts: impl IntoIterator<Item = (PredId, Vec<Value>)>,
    ) -> Result<(), AspError> {
        let facts: Vec<(PredId, Vec<Value>)> = facts.into_iter().collect();
        for (pred, args) in &facts {
            if pred.index() >= self.program.pred_count() {
                return Err(AspError::UnknownPredicate {
                    predicate: format!("#{}", pred.0),
                });
            }
            let declared = self.program.pred_arity(*pred);
            if declared != args.len() {
                return Err(AspError::ArityConflict {
                    predicate: self.program.pred_name(*pred).to_string(),
                    declared,
                    used: args.len(),
                });
            }
        }
        let mut work: VecDeque<(PredId, Vec<Value>)> = VecDeque::new();
        for (pred, args) in facts {
            let name = self.program.pred_name(pred).to_string();
            self.program
                .fact(name, args.clone())
                .expect("batch validated above");
            self.admit_fact(pred, args, &mut work);
        }
        self.propagate(&mut work);
        Ok(())
    }

    /// Named convenience for [`GroundingState::add_facts`]. The predicate
    /// must already be declared.
    pub fn add_fact_named(
        &mut self,
        pred: &str,
        args: impl IntoIterator<Item = Value>,
    ) -> Result<(), AspError> {
        let id = self
            .program
            .pred_id(pred)
            .ok_or_else(|| AspError::UnknownPredicate {
                predicate: pred.to_string(),
            })?;
        self.add_facts([(id, args.into_iter().collect())])
    }

    /// Remove facts (first occurrence each, multiset semantics),
    /// regrounding incrementally by delete–rederive: over-delete the
    /// removed atoms' derivation cones through the positive occurrence
    /// indexes, then re-admit every torn-down atom that still has a
    /// surviving derivation (see module docs, "Deletion architecture
    /// (DRed)"). Facts not present in the program are ignored. Cost is
    /// bounded by the delta's derivation cone, not the instance.
    pub fn remove_facts(&mut self, facts: impl IntoIterator<Item = (PredId, Vec<Value>)>) {
        // Remove the whole batch from the program first: pass 1's
        // fact-support checks must see the post-removal multiset.
        let mut dq: VecDeque<(PredId, Vec<Value>)> = VecDeque::new();
        for (pred, args) in facts {
            if !self.program.remove_fact(pred, &args) {
                continue; // absent fact: nothing to retract
            }
            let id = self.gp.intern(GroundAtom {
                pred,
                args: args.clone(),
            });
            self.retract(&GroundRule {
                head: vec![id],
                pos: vec![],
                neg: vec![],
            });
            unbump(&mut self.fact_rc[pred.index()], &args);
            unbump(&mut self.support[pred.index()], &args);
            dq.push_back((pred, args));
        }
        // Pass 1: over-delete. Every queued atom falls unless a fact
        // occurrence survives; bindings using it positively are dropped
        // and their heads join the queue.
        let mut deleted: BTreeSet<(PredId, Vec<Value>)> = BTreeSet::new();
        while let Some((pred, args)) = dq.pop_front() {
            if self.cancel.is_cancelled() {
                self.poisoned = true;
                return;
            }
            if !self.pt[pred.index()].contains(&args)
                || self.fact_rc[pred.index()].contains_key(&args)
            {
                continue; // already deleted, or fact-supported (ground)
            }
            // Stratification cut-off: a predicate off every positive
            // cycle has well-founded support, so a surviving derivation
            // cannot be circular — keep the atom instead of tearing down
            // a cone pass 2 would immediately rederive. Sound because
            // this only *defers*: `drop_binding` re-queues head atoms on
            // every support decrement, so the atom is re-examined each
            // time a supporting binding falls and is deleted the moment
            // its support reaches zero.
            if !self.recursive[pred.index()] && self.support[pred.index()].contains_key(&args) {
                continue;
            }
            self.delete_atom(pred, args, &mut dq, &mut deleted);
        }
        // Pass 2: rederive. Supports are exact after pass 1 (every
        // binding in the deleted cone was dropped), so a positive count
        // is a surviving derivation: re-admit and propagate seminaively.
        let mut work: VecDeque<(PredId, Vec<Value>)> = VecDeque::new();
        for (pred, args) in &deleted {
            if self.support[pred.index()].contains_key(args) {
                self.admit_atom(*pred, args.clone(), &mut work);
            }
        }
        self.propagate(&mut work);
    }

    /// Over-delete one atom (DRed pass 1): un-patch the surviving
    /// bindings whose negative literals ground to it, remove it from
    /// `PT`, and drop every binding that used it positively — each
    /// dropped binding retracts its resolved rule and sends its head
    /// atoms to the deletion queue.
    fn delete_atom(
        &mut self,
        pred: PredId,
        args: Vec<Value>,
        dq: &mut VecDeque<(PredId, Vec<Value>)>,
        deleted: &mut BTreeSet<(PredId, Vec<Value>)>,
    ) {
        // Both the un-patch and the affected-binding enumeration join
        // against `PT` *with the atom still present*: a binding that uses
        // the atom in several positions (or both polarities) is only
        // reachable while it is.
        self.repatch_negatives(pred, &args, false);
        let occs = self.pos_occ[pred.index()].clone();
        let mut affected: BTreeSet<(usize, Vec<Value>)> = BTreeSet::new();
        for (ri, pi) in occs {
            let mut found: Vec<Vec<Value>> = Vec::new();
            collect_bindings(
                &self.program.rules()[ri],
                &self.info[ri],
                &self.pt,
                Pin::Pos(pi, &args),
                &mut found,
            );
            for binding in found {
                if self.instances[ri].contains(&binding) {
                    affected.insert((ri, binding));
                }
            }
        }
        self.pt[pred.index()].remove(&args);
        self.dred_teardowns += 1;
        deleted.insert((pred, args));
        for (ri, binding) in affected {
            self.drop_binding(ri, binding, dq);
        }
    }

    /// Drop one live binding: retract its resolved rule (refcount-exact —
    /// computed under the current `PT`, which the un-patch discipline
    /// keeps in sync with what was emitted) and decrement each distinct
    /// head atom's support, queueing the heads for over-deletion.
    fn drop_binding(
        &mut self,
        ri: usize,
        binding: Vec<Value>,
        dq: &mut VecDeque<(PredId, Vec<Value>)>,
    ) {
        if !self.instances[ri].remove(&binding) {
            return;
        }
        if let Some(rule) = resolve_instance(
            &self.program.rules()[ri],
            &self.pt,
            &mut self.gp,
            &binding,
            None,
        ) {
            self.retract(&rule);
        }
        let opt: Vec<Option<Value>> = binding.into_iter().map(Some).collect();
        let heads: BTreeSet<(PredId, Vec<Value>)> = self.program.rules()[ri]
            .head
            .iter()
            .map(|h| (h.pred, ground_args(&h.terms, &opt)))
            .collect();
        for (pred, args) in heads {
            unbump(&mut self.support[pred.index()], &args);
            dq.push_back((pred, args));
        }
    }

    /// Append a rule to the live grounding: the rule is instantiated
    /// against the current possibly-true set and anything its heads add
    /// propagates seminaively. This is how the CQA layer extends a cached
    /// Π(D, IC) grounding with per-query rules.
    pub fn add_rule(
        &mut self,
        head: impl IntoIterator<Item = AtomSpec>,
        body: impl IntoIterator<Item = BodyLit>,
    ) -> Result<(), AspError> {
        let result = self.program.rule(head, body);
        // `Program::rule` declares the rule's predicates before its
        // safety check, so even a rejected rule can grow the predicate
        // table: size the per-predicate indexes to the program *before*
        // propagating the error, or a later delta on one of those
        // predicates would index out of bounds.
        while self.pt.len() < self.program.pred_count() {
            self.pos_occ.push(Vec::new());
            self.neg_occ.push(Vec::new());
            self.pt.push(BTreeSet::new());
            self.support.push(BTreeMap::new());
            self.fact_rc.push(BTreeMap::new());
            // A predicate declared by a rejected rule heads no rule, so
            // it is trivially non-recursive until a later `add_rule`
            // recomputes the flags.
            self.recursive.push(false);
        }
        result?;
        let ri = self.program.rules().len() - 1;
        self.instances.push(BTreeSet::new());
        self.register_rule(ri);
        self.compute_recursion();
        let mut found: Vec<Vec<Value>> = Vec::new();
        collect_bindings(
            &self.program.rules()[ri],
            &self.info[ri],
            &self.pt,
            Pin::All,
            &mut found,
        );
        let mut work: VecDeque<(PredId, Vec<Value>)> = VecDeque::new();
        for binding in found {
            self.admit_binding(ri, binding, &mut work);
        }
        self.propagate(&mut work);
        Ok(())
    }

    /// Record `ri`'s literal split and occurrence-index entries.
    fn register_rule(&mut self, ri: usize) {
        let rule = &self.program.rules()[ri];
        let mut info = RuleInfo {
            positives: Vec::new(),
            negatives: Vec::new(),
        };
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) => {
                    self.pos_occ[a.pred.index()].push((ri, info.positives.len()));
                    info.positives.push(a.clone());
                }
                Literal::Neg(a) => {
                    self.neg_occ[a.pred.index()].push((ri, info.negatives.len()));
                    info.negatives.push(a.clone());
                }
                Literal::Cmp(..) => {}
            }
        }
        debug_assert_eq!(self.info.len(), ri);
        self.info.push(info);
    }

    /// Recompute the per-predicate positive-recursion flags: a predicate
    /// is *recursive* iff it lies on a cycle of the positive predicate
    /// dependency graph (edges: positive body predicate → head predicate).
    /// Support flows only through positive literals (bindings are
    /// justified by their positive body; negation never binds), so an
    /// atom-level support cycle implies a positive predicate-level cycle —
    /// predicates off every such cycle have well-founded ground support.
    /// O(preds · edges): the graph is schema-sized, not data-sized.
    fn compute_recursion(&mut self) {
        let preds = self.program.pred_count();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); preds];
        for rule in self.program.rules() {
            for lit in &rule.body {
                if let Literal::Pos(a) = lit {
                    for h in &rule.head {
                        succ[a.pred.index()].push(h.pred.index());
                    }
                }
            }
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        self.recursive = vec![false; preds];
        let mut seen = vec![false; preds];
        let mut stack: Vec<usize> = Vec::new();
        for p in 0..preds {
            // Reachability from p's successors back to p.
            seen.iter_mut().for_each(|s| *s = false);
            stack.extend(succ[p].iter().copied());
            while let Some(q) = stack.pop() {
                if q == p {
                    self.recursive[p] = true;
                    stack.clear();
                    break;
                }
                if !seen[q] {
                    seen[q] = true;
                    stack.extend(succ[q].iter().copied());
                }
            }
        }
    }

    /// A new fact: emit its unit rule, count its derivation and admit its
    /// atom into `PT`. Every occurrence of a duplicated fact counts — the
    /// refcounts are multiset-exact so removal retracts precisely one.
    fn admit_fact(
        &mut self,
        pred: PredId,
        args: Vec<Value>,
        work: &mut VecDeque<(PredId, Vec<Value>)>,
    ) {
        let id = self.gp.intern(GroundAtom {
            pred,
            args: args.clone(),
        });
        self.emit(GroundRule {
            head: vec![id],
            pos: vec![],
            neg: vec![],
        });
        bump(&mut self.fact_rc[pred.index()], &args);
        bump(&mut self.support[pred.index()], &args);
        self.admit_atom(pred, args, work);
    }

    /// An atom newly possibly-true: insert into `PT`, patch the negative
    /// occurrences that assumed it definitely false, and queue it for the
    /// positive-occurrence joins.
    fn admit_atom(
        &mut self,
        pred: PredId,
        args: Vec<Value>,
        work: &mut VecDeque<(PredId, Vec<Value>)>,
    ) {
        if !self.pt[pred.index()].insert(args.clone()) {
            return;
        }
        self.repatch_negatives(pred, &args, true);
        work.push_back((pred, args));
    }

    /// Drain the seminaive worklist: each popped atom is pinned into every
    /// positive occurrence of its predicate and the remaining body joined
    /// against the full `PT` set.
    fn propagate(&mut self, work: &mut VecDeque<(PredId, Vec<Value>)>) {
        while let Some((pred, args)) = work.pop_front() {
            if self.cancel.is_cancelled() {
                self.poisoned = true;
                return;
            }
            let occs = self.pos_occ[pred.index()].clone();
            for (ri, pi) in occs {
                let mut found: Vec<Vec<Value>> = Vec::new();
                collect_bindings(
                    &self.program.rules()[ri],
                    &self.info[ri],
                    &self.pt,
                    Pin::Pos(pi, &args),
                    &mut found,
                );
                for binding in found {
                    self.admit_binding(ri, binding, work);
                }
            }
        }
    }

    /// A satisfying binding of rule `ri`'s positive body + builtins: emit
    /// its resolution and admit its head atoms.
    fn admit_binding(
        &mut self,
        ri: usize,
        binding: Vec<Value>,
        work: &mut VecDeque<(PredId, Vec<Value>)>,
    ) {
        if !self.instances[ri].insert(binding.clone()) {
            return;
        }
        if let Some(rule) = resolve_instance(
            &self.program.rules()[ri],
            &self.pt,
            &mut self.gp,
            &binding,
            None,
        ) {
            self.emit(rule);
        }
        let opt: Vec<Option<Value>> = binding.into_iter().map(Some).collect();
        let heads: Vec<(PredId, Vec<Value>)> = self.program.rules()[ri]
            .head
            .iter()
            .map(|h| (h.pred, ground_args(&h.terms, &opt)))
            .collect();
        // One support per *distinct* ground head atom per binding — the
        // exact amount `drop_binding` retracts.
        let mut seen: BTreeSet<(PredId, Vec<Value>)> = BTreeSet::new();
        for (pred, args) in heads {
            if seen.insert((pred, args.clone())) {
                bump(&mut self.support[pred.index()], &args);
            }
            self.admit_atom(pred, args, work);
        }
    }

    /// `atom` is crossing the `PT` boundary: every live binding whose
    /// *negative* literal grounds to it carries a resolution that is
    /// about to go stale. `entering = true` (the atom was just inserted):
    /// literals previously dropped as definitely false become live —
    /// retract the pre-delta resolution, emit the patched one.
    /// `entering = false` (the atom is about to be removed): the exact
    /// inverse — the literal flips back to "definitely false → dropped".
    /// Both directions re-enumerate the affected bindings through the
    /// negative occurrence index *while the atom is in `PT`*, and both
    /// rely on the refcount store for exactness: a stale rule shared with
    /// an unaffected binding merely loses one reference.
    fn repatch_negatives(&mut self, pred: PredId, args: &[Value], entering: bool) {
        if self.neg_occ[pred.index()].is_empty() {
            return;
        }
        let occs = self.neg_occ[pred.index()].clone();
        // De-duplicated: a binding whose rule mentions the atom in several
        // negative literals must be patched once, not once per literal.
        let mut affected: BTreeSet<(usize, Vec<Value>)> = BTreeSet::new();
        for (ri, ni) in occs {
            let mut found: Vec<Vec<Value>> = Vec::new();
            collect_bindings(
                &self.program.rules()[ri],
                &self.info[ri],
                &self.pt,
                Pin::Neg(ni, args),
                &mut found,
            );
            for binding in found {
                if self.instances[ri].contains(&binding) {
                    affected.insert((ri, binding));
                }
            }
        }
        let ga = GroundAtom {
            pred,
            args: args.to_vec(),
        };
        for (ri, binding) in affected {
            let without = resolve_instance(
                &self.program.rules()[ri],
                &self.pt,
                &mut self.gp,
                &binding,
                Some(&ga),
            );
            let with = resolve_instance(
                &self.program.rules()[ri],
                &self.pt,
                &mut self.gp,
                &binding,
                None,
            );
            let (stale, fresh) = if entering {
                (without, with)
            } else {
                (with, without)
            };
            if stale == fresh {
                continue;
            }
            if let Some(rule) = stale {
                self.retract(&rule);
            }
            if let Some(rule) = fresh {
                self.emit(rule);
            }
        }
    }

    /// Reference-counted rule emission into the in-place ground program.
    fn emit(&mut self, rule: GroundRule) {
        match self.emitted.get_mut(&rule) {
            Some((_, rc)) => *rc += 1,
            None => {
                let idx = self.gp.rules.len();
                self.gp.push_rule(rule.clone());
                self.emitted.insert(rule, (idx, 1));
            }
        }
    }

    /// Drop one reference; the last reference removes the rule from the
    /// ground program (swap-remove, fixing the moved rule's index).
    fn retract(&mut self, rule: &GroundRule) {
        let Some((idx, rc)) = self.emitted.get_mut(rule) else {
            debug_assert!(false, "retract of a rule that was never emitted");
            return;
        };
        if *rc > 1 {
            *rc -= 1;
            return;
        }
        let idx = *idx;
        self.emitted.remove(rule);
        self.gp.rules.swap_remove(idx);
        if idx < self.gp.rules.len() {
            let moved = self.gp.rules[idx].clone();
            if let Some((mi, _)) = self.emitted.get_mut(&moved) {
                *mi = idx;
            }
        }
        self.retract_seq += 1;
        self.retract_log.push_back((self.retract_seq, rule.clone()));
        if self.retract_log.len() > RETRACT_LOG_CAP {
            self.retract_log.pop_front();
        }
    }

    /// The current retraction sequence number: increments once per rule
    /// that actually leaves the ground program (last reference
    /// retracted). Snapshot it, apply deltas, then feed the interval to
    /// [`GroundingState::retractions_since`].
    pub fn retraction_seq(&self) -> u64 {
        self.retract_seq
    }

    /// The rules retracted from the ground program since sequence number
    /// `since` (exclusive), oldest first, or `None` when the capped log
    /// no longer covers that interval — the consumer must then resync
    /// from scratch. A rule can be retracted and later re-emitted;
    /// consumers invalidating derived artifacts by retracted rule are
    /// conservative under that (they drop something still valid, never
    /// keep something stale).
    pub fn retractions_since(&self, since: u64) -> Option<Vec<GroundRule>> {
        if since > self.retract_seq {
            return None; // not our past: the caller tracked another state
        }
        if since == self.retract_seq {
            return Some(Vec::new());
        }
        match self.retract_log.front() {
            Some(&(front_seq, _)) if front_seq <= since + 1 => Some(
                self.retract_log
                    .iter()
                    .filter(|(seq, _)| *seq > since)
                    .map(|(_, rule)| rule.clone())
                    .collect(),
            ),
            _ => None, // trimmed (or empty while retractions happened)
        }
    }

    /// Cumulative atoms torn down by DRed pass 1 over this state's
    /// lifetime. Observability for the stratification cut-off: a
    /// non-recursive atom with a surviving derivation must not bump this.
    pub fn dred_teardowns(&self) -> u64 {
        self.dred_teardowns
    }
}

/// Resolve one satisfying binding of `rule` into a ground rule over `gp`'s
/// atom ids: heads and positives interned, negative literals kept only
/// when possibly true (`∈ pt`, with `except` treated as absent — that is
/// how a patch reconstructs the pre-delta resolution), tautologies
/// (`head ∩ pos ≠ ∅`) dropped. Mirrors [`ground`]'s phase 2 exactly.
fn resolve_instance(
    rule: &Rule,
    pt: &[BTreeSet<Vec<Value>>],
    gp: &mut GroundProgram,
    binding: &[Value],
    except: Option<&GroundAtom>,
) -> Option<GroundRule> {
    let opt: Vec<Option<Value>> = binding.iter().cloned().map(Some).collect();
    let mut head = Vec::with_capacity(rule.head.len());
    for h in &rule.head {
        let args = ground_args(&h.terms, &opt);
        head.push(gp.intern(GroundAtom { pred: h.pred, args }));
    }
    let mut pos_ids = Vec::new();
    let mut neg_ids = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Pos(a) => {
                let args = ground_args(&a.terms, &opt);
                pos_ids.push(gp.intern(GroundAtom { pred: a.pred, args }));
            }
            Literal::Neg(a) => {
                let args = ground_args(&a.terms, &opt);
                let masked = except.is_some_and(|e| e.pred == a.pred && e.args == args);
                if !masked && pt[a.pred.index()].contains(&args) {
                    neg_ids.push(gp.intern(GroundAtom { pred: a.pred, args }));
                }
            }
            Literal::Cmp(..) => {}
        }
    }
    for h in &head {
        if pos_ids.contains(h) {
            return None;
        }
    }
    head.sort_unstable();
    head.dedup();
    pos_ids.sort_unstable();
    pos_ids.dedup();
    neg_ids.sort_unstable();
    neg_ids.dedup();
    Some(GroundRule {
        head,
        pos: pos_ids,
        neg: neg_ids,
    })
}

/// Enumerate the full bindings of `rule` satisfying its positive body and
/// builtins over `pt`, with `pin` optionally fixing one body literal to a
/// concrete row, collecting the bound value vectors. The join lists a body
/// atom's rows as the `pt` range of its bound leading arguments.
fn collect_bindings(
    rule: &Rule,
    info: &RuleInfo,
    pt: &[BTreeSet<Vec<Value>>],
    pin: Pin<'_>,
    out: &mut Vec<Vec<Value>>,
) {
    let mut bindings: Vec<Option<Value>> = vec![None; rule.var_names.len()];
    let (pinned, skip) = match pin {
        Pin::All => (None, None),
        Pin::Pos(pi, row) => (Some((&info.positives[pi], row)), Some(pi)),
        Pin::Neg(ni, row) => (Some((&info.negatives[ni], row)), None),
    };
    if let Some((atom, row)) = pinned {
        if !bind(atom, row, true, &mut bindings) {
            return;
        }
    }
    let join = Join {
        source: pt,
        atoms: &info.positives,
        order: Order::Body,
        bound_null_matches: true,
        root: IndexBuild::OnFirstUse,
    };
    let _ = join.run(&mut bindings, skip, |bindings, _| {
        let value = |t: &Term| match t {
            Term::Const(c) => *c,
            Term::Var(v) => bindings[*v as usize].expect("bound by safety"),
        };
        let passes = rule.body.iter().all(|lit| match lit {
            Literal::Cmp(op, l, r) => op.eval(&value(l), &value(r)),
            _ => true,
        });
        if passes {
            out.push(
                bindings
                    .iter()
                    .map(|b| (*b).expect("safe rule binds all variables"))
                    .collect(),
            );
        }
        ControlFlow::<()>::Continue(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{atom, cmp, neg, pos, tc, tv, BuiltinOp, Program};
    use cqa_relational::{i, s};

    #[test]
    fn facts_become_unit_rules() {
        let mut p = Program::new();
        p.fact("r", [s("a")]).unwrap();
        p.fact("r", [s("b")]).unwrap();
        let gp = ground(&p);
        assert_eq!(gp.atom_count(), 2);
        assert_eq!(gp.rules.len(), 2);
        assert!(gp
            .rules
            .iter()
            .all(|r| r.pos.is_empty() && r.head.len() == 1));
    }

    #[test]
    fn transitive_closure_fixpoint() {
        // path(x,y) ← edge(x,y); path(x,z) ← edge(x,y), path(y,z).
        let mut p = Program::new();
        p.fact("edge", [i(1), i(2)]).unwrap();
        p.fact("edge", [i(2), i(3)]).unwrap();
        p.rule(
            [atom("path", [tv("x"), tv("y")])],
            [pos(atom("edge", [tv("x"), tv("y")]))],
        )
        .unwrap();
        p.rule(
            [atom("path", [tv("x"), tv("z")])],
            [
                pos(atom("edge", [tv("x"), tv("y")])),
                pos(atom("path", [tv("y"), tv("z")])),
            ],
        )
        .unwrap();
        let gp = ground(&p);
        let path = p.pred_id("path").unwrap();
        let derived: Vec<&GroundAtom> = gp
            .atoms()
            .map(|(_, a)| a)
            .filter(|a| a.pred == path)
            .collect();
        // path(1,2), path(2,3), path(1,3)
        assert_eq!(derived.len(), 3);
    }

    #[test]
    fn builtins_filter_instances() {
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.fact("n", [i(5)]).unwrap();
        p.rule(
            [atom("big", [tv("x")])],
            [
                pos(atom("n", [tv("x")])),
                cmp(tv("x"), BuiltinOp::Gt, tc(i(3))),
            ],
        )
        .unwrap();
        let gp = ground(&p);
        let big = p.pred_id("big").unwrap();
        let derived: Vec<&GroundAtom> = gp
            .atoms()
            .map(|(_, a)| a)
            .filter(|a| a.pred == big)
            .collect();
        assert_eq!(derived.len(), 1);
        assert_eq!(derived[0].args, vec![i(5)]);
    }

    #[test]
    fn definitely_false_negatives_are_dropped() {
        // q(x) ← n(x), not m(x): m is never derivable → literal vanishes.
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.pred("m", 1).unwrap();
        p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("n", [tv("x")])), neg(atom("m", [tv("x")]))],
        )
        .unwrap();
        let gp = ground(&p);
        let q_rule = gp
            .rules
            .iter()
            .find(|r| !r.head.is_empty() && r.head.len() == 1 && !r.pos.is_empty())
            .unwrap();
        assert!(q_rule.neg.is_empty());
    }

    #[test]
    fn possibly_true_negatives_are_kept() {
        // m(1) is a fact, so `not m(x)` stays in the ground rule.
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.fact("m", [i(1)]).unwrap();
        p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("n", [tv("x")])), neg(atom("m", [tv("x")]))],
        )
        .unwrap();
        let gp = ground(&p);
        let q_rule = gp.rules.iter().find(|r| !r.pos.is_empty()).unwrap();
        assert_eq!(q_rule.neg.len(), 1);
    }

    #[test]
    fn tautologies_dropped_and_rules_deduped() {
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        // r(x) ← r(x): tautology.
        p.rule([atom("r", [tv("x")])], [pos(atom("r", [tv("x")]))])
            .unwrap();
        let gp = ground(&p);
        assert_eq!(gp.rules.len(), 1); // just the fact
    }

    #[test]
    fn disjunctive_heads_expand_pt() {
        // a(x) ∨ b(x) ← r(x): both a(1) and b(1) possibly true.
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.rule(
            [atom("a", [tv("x")]), atom("b", [tv("x")])],
            [pos(atom("r", [tv("x")]))],
        )
        .unwrap();
        p.rule([atom("c", [tv("x")])], [pos(atom("b", [tv("x")]))])
            .unwrap();
        let gp = ground(&p);
        let c = p.pred_id("c").unwrap();
        assert!(gp.atoms().any(|(_, a)| a.pred == c));
    }

    #[test]
    fn denial_rules_ground() {
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("q", [i(1)]).unwrap();
        p.rule([], [pos(atom("r", [tv("x")])), pos(atom("q", [tv("x")]))])
            .unwrap();
        let gp = ground(&p);
        assert!(gp
            .rules
            .iter()
            .any(|r| r.head.is_empty() && r.pos.len() == 2));
    }

    /// The programs the from-scratch tests above exercise, as builders.
    fn sample_programs() -> Vec<Program> {
        let mut out = Vec::new();
        {
            // Transitive closure.
            let mut p = Program::new();
            p.fact("edge", [i(1), i(2)]).unwrap();
            p.fact("edge", [i(2), i(3)]).unwrap();
            p.rule(
                [atom("path", [tv("x"), tv("y")])],
                [pos(atom("edge", [tv("x"), tv("y")]))],
            )
            .unwrap();
            p.rule(
                [atom("path", [tv("x"), tv("z")])],
                [
                    pos(atom("edge", [tv("x"), tv("y")])),
                    pos(atom("path", [tv("y"), tv("z")])),
                ],
            )
            .unwrap();
            out.push(p);
        }
        {
            // Negation whose atom is derivable — the patch path.
            let mut p = Program::new();
            p.fact("n", [i(1)]).unwrap();
            p.fact("m", [i(1)]).unwrap();
            p.rule(
                [atom("q", [tv("x")])],
                [pos(atom("n", [tv("x")])), neg(atom("m", [tv("x")]))],
            )
            .unwrap();
            out.push(p);
        }
        {
            // Disjunctive heads + chained derivation + builtin.
            let mut p = Program::new();
            p.fact("r", [i(1)]).unwrap();
            p.fact("r", [i(5)]).unwrap();
            p.rule(
                [atom("a", [tv("x")]), atom("b", [tv("x")])],
                [
                    pos(atom("r", [tv("x")])),
                    cmp(tv("x"), BuiltinOp::Gt, tc(i(2))),
                ],
            )
            .unwrap();
            p.rule([atom("c", [tv("x")])], [pos(atom("b", [tv("x")]))])
                .unwrap();
            out.push(p);
        }
        {
            // Bodyless disjunction + denial + tautology candidate.
            let mut p = Program::new();
            p.pred("a", 0).unwrap();
            p.pred("b", 0).unwrap();
            p.rule([atom("a", []), atom("b", [])], []).unwrap();
            p.rule([], [pos(atom("a", [])), pos(atom("b", []))])
                .unwrap();
            p.fact("r", [i(1)]).unwrap();
            p.rule([atom("r", [tv("x")])], [pos(atom("r", [tv("x")]))])
                .unwrap();
            out.push(p);
        }
        out
    }

    #[test]
    fn state_matches_scratch_grounder() {
        for p in sample_programs() {
            let scratch = ground(&p);
            let state = GroundingState::new(&p);
            assert_eq!(
                state.ground_program().resolved_rules(),
                scratch.resolved_rules(),
                "program: {p}"
            );
        }
    }

    #[test]
    fn incremental_fact_delta_matches_scratch() {
        // Add facts one at a time to a live state; after every delta the
        // state must equal a from-scratch grounding of the grown program.
        let mut base = Program::new();
        base.pred("edge", 2).unwrap();
        base.pred("bad", 1).unwrap();
        base.rule(
            [atom("path", [tv("x"), tv("y")])],
            [pos(atom("edge", [tv("x"), tv("y")]))],
        )
        .unwrap();
        base.rule(
            [atom("path", [tv("x"), tv("z")])],
            [
                pos(atom("edge", [tv("x"), tv("y")])),
                pos(atom("path", [tv("y"), tv("z")])),
            ],
        )
        .unwrap();
        base.rule(
            [atom("good", [tv("x"), tv("y")])],
            [
                pos(atom("path", [tv("x"), tv("y")])),
                neg(atom("bad", [tv("x")])),
            ],
        )
        .unwrap();
        let mut state = GroundingState::new(&base);
        let deltas: Vec<(&str, Vec<Value>)> = vec![
            ("edge", vec![i(1), i(2)]),
            ("edge", vec![i(2), i(3)]),
            // `bad(1)` flips `not bad(1)` from dropped to kept in every
            // good(1, _) instance — the negative patch path.
            ("bad", vec![i(1)]),
            ("edge", vec![i(3), i(1)]),
        ];
        for (pred, args) in deltas {
            state.add_fact_named(pred, args.clone()).unwrap();
            let scratch = ground(state.program());
            assert_eq!(
                state.ground_program().resolved_rules(),
                scratch.resolved_rules(),
                "after adding {pred}({args:?})"
            );
        }
    }

    #[test]
    fn fact_removal_unpatches_negatives() {
        // The DRed un-patch path: `m(1)` leaving PT must flip `not m(1)`
        // back to "definitely false → dropped" in the surviving q-rule
        // instance (the ground rule loses its negative literal).
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.fact("n", [i(2)]).unwrap();
        p.fact("m", [i(1)]).unwrap();
        p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("n", [tv("x")])), neg(atom("m", [tv("x")]))],
        )
        .unwrap();
        let mut state = GroundingState::new(&p);
        let m = p.pred_id("m").unwrap();
        state.remove_facts([(m, vec![i(1)])]);
        let scratch = ground(state.program());
        assert_eq!(
            state.ground_program().resolved_rules(),
            scratch.resolved_rules()
        );
        // And the removed fact really is gone.
        assert!(!state
            .program()
            .facts()
            .iter()
            .any(|(pid, args)| *pid == m && args == &vec![i(1)]));
        // Every q-rule instance now resolves without a negative literal.
        let q = p.pred_id("q").unwrap();
        for (head, _, neg) in state.ground_program().resolved_rules() {
            if head.iter().any(|a| a.pred == q) {
                assert!(neg.is_empty(), "not m(x) must be dropped after removal");
            }
        }
    }

    #[test]
    fn atom_with_two_derivations_survives_over_delete() {
        // p(x) is derived from both e(x) and f(x): removing e(1) tears
        // p(1) down in pass 1 but pass 2 rederives it from the surviving
        // f-binding — and its consumers come back with it.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.fact("f", [i(1)]).unwrap();
        p.rule([atom("p", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        p.rule([atom("p", [tv("x")])], [pos(atom("f", [tv("x")]))])
            .unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("p", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        state.remove_facts([(e, vec![i(1)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        let q = p.pred_id("q").unwrap();
        assert!(
            state
                .ground_program()
                .resolved_rules()
                .iter()
                .any(|(head, _, _)| head.iter().any(|a| a.pred == q)),
            "q(1) must survive: p(1) still derivable via f(1)"
        );
    }

    #[test]
    fn cyclic_support_is_torn_down() {
        // p ← q and q ← p support each other; only e grounds them. A pure
        // refcount cut-off would keep the dead loop alive after e is
        // removed — the over-delete pass must not.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.rule([atom("p", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        p.rule([atom("p", [tv("x")])], [pos(atom("q", [tv("x")]))])
            .unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("p", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        state.remove_facts([(e, vec![i(1)])]);
        let scratch = ground(state.program());
        assert_eq!(
            state.ground_program().resolved_rules(),
            scratch.resolved_rules()
        );
        assert!(
            state.ground_program().resolved_rules().is_empty(),
            "the p/q loop has no non-circular derivation left"
        );
    }

    #[test]
    fn duplicate_fact_removal_is_multiset_exact() {
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("r", [i(1)]).unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("r", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let r = p.pred_id("r").unwrap();
        // First removal: one occurrence remains, the atom (and q(1)) stay.
        state.remove_facts([(r, vec![i(1)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert_eq!(state.program().facts().len(), 1);
        assert!(!state.ground_program().resolved_rules().is_empty());
        // Second removal: now the cone falls.
        state.remove_facts([(r, vec![i(1)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert!(state.ground_program().resolved_rules().is_empty());
    }

    #[test]
    fn transitive_cone_deletes_and_rederives() {
        // Diamond: path(1,3) via the direct edge and via 2. Removing
        // edge(1,3) keeps path(1,3) (rederived through the chain);
        // removing edge(1,2) afterwards kills it.
        let mut p = Program::new();
        p.fact("edge", [i(1), i(2)]).unwrap();
        p.fact("edge", [i(2), i(3)]).unwrap();
        p.fact("edge", [i(1), i(3)]).unwrap();
        p.rule(
            [atom("path", [tv("x"), tv("y")])],
            [pos(atom("edge", [tv("x"), tv("y")]))],
        )
        .unwrap();
        p.rule(
            [atom("path", [tv("x"), tv("z")])],
            [
                pos(atom("edge", [tv("x"), tv("y")])),
                pos(atom("path", [tv("y"), tv("z")])),
            ],
        )
        .unwrap();
        let mut state = GroundingState::new(&p);
        let edge = p.pred_id("edge").unwrap();
        let path = p.pred_id("path").unwrap();
        let has_path13 = |state: &GroundingState| {
            state
                .ground_program()
                .resolved_rules()
                .iter()
                .any(|(head, _, _)| {
                    head.iter()
                        .any(|a| a.pred == path && a.args == vec![i(1), i(3)])
                })
        };
        state.remove_facts([(edge, vec![i(1), i(3)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert!(has_path13(&state), "path(1,3) survives via 1→2→3");
        state.remove_facts([(edge, vec![i(1), i(2)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert!(!has_path13(&state), "no derivation of path(1,3) remains");
    }

    #[test]
    fn removal_batch_interleaves_with_additions_and_rules() {
        // DRed must compose with the insertion path and add_rule on one
        // live state — the cache's mixed-churn usage pattern.
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.fact("m", [i(1)]).unwrap();
        p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("n", [tv("x")])), neg(atom("m", [tv("x")]))],
        )
        .unwrap();
        let mut state = GroundingState::new(&p);
        let n = state.program().pred_id("n").unwrap();
        let m = state.program().pred_id("m").unwrap();
        state.add_fact_named("n", [i(2)]).unwrap();
        state.remove_facts([(m, vec![i(1)]), (n, vec![i(1)])]);
        state
            .add_rule([atom("s", [tv("x")])], [pos(atom("q", [tv("x")]))])
            .unwrap();
        state.add_fact_named("m", [i(2)]).unwrap();
        state.remove_facts([(n, vec![i(2)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
    }

    #[test]
    fn add_rule_extends_live_grounding() {
        let mut p = Program::new();
        p.fact("r", [i(1)]).unwrap();
        p.fact("r", [i(2)]).unwrap();
        let mut state = GroundingState::new(&p);
        state
            .add_rule(
                [atom("q", [tv("x")])],
                [
                    pos(atom("r", [tv("x")])),
                    cmp(tv("x"), BuiltinOp::Gt, tc(i(1))),
                ],
            )
            .unwrap();
        state
            .add_rule([atom("s", [tv("x")])], [pos(atom("q", [tv("x")]))])
            .unwrap();
        let scratch = ground(state.program());
        assert_eq!(
            state.ground_program().resolved_rules(),
            scratch.resolved_rules()
        );
        let s_pred = state.program().pred_id("s").unwrap();
        assert!(state
            .ground_program()
            .atoms()
            .any(|(_, a)| a.pred == s_pred && a.args == vec![i(2)]));
    }

    #[test]
    fn failed_add_rule_keeps_state_usable() {
        // `Program::rule` declares predicates before rejecting an unsafe
        // rule; the state's per-predicate tables must track them so later
        // deltas on those predicates error or succeed — never panic.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        let mut state = GroundingState::new(&p);
        let err = state.add_rule([atom("q", [tv("y")])], [pos(atom("e", [tv("x")]))]);
        assert!(matches!(err, Err(AspError::UnsafeRule { .. })));
        state.add_fact_named("q", [i(7)]).unwrap();
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
    }

    #[test]
    fn failed_fact_batch_leaves_state_untouched() {
        // A batch with a bad arity mid-way must apply nothing: the state
        // stays equal to a from-scratch grounding of its (unchanged)
        // program.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        let err = state.add_facts([(e, vec![i(2)]), (e, vec![i(2), i(3)])]);
        assert!(matches!(err, Err(AspError::ArityConflict { .. })));
        assert_eq!(state.program().facts().len(), 1, "nothing applied");
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        // And the state is still usable: the valid fact goes in cleanly.
        state.add_facts([(e, vec![i(2)])]).unwrap();
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
    }

    #[test]
    fn patch_keeps_shared_rule_alive() {
        // Two bindings of a denial resolve to the same ground rule while
        // their negative atoms are definitely false; when one of the two
        // negative atoms becomes possibly true, the shared resolution must
        // survive for the unaffected binding (the refcount-exactness the
        // incremental patch relies on).
        let mut p = Program::new();
        p.fact("n", [i(1)]).unwrap();
        p.fact("n", [i(2)]).unwrap();
        p.pred("m", 1).unwrap();
        p.rule(
            [],
            [
                pos(atom("n", [tv("x")])),
                pos(atom("n", [tv("y")])),
                neg(atom("m", [tv("y")])),
            ],
        )
        .unwrap();
        let mut state = GroundingState::new(&p);
        state.add_fact_named("m", [i(2)]).unwrap();
        let scratch = ground(state.program());
        assert_eq!(
            state.ground_program().resolved_rules(),
            scratch.resolved_rules()
        );
    }

    #[test]
    fn acyclic_survivor_skips_teardown() {
        // q(1) is derived twice — via e(1) and via f(1) — and q is not on
        // any positive cycle. Removing e(1) must not tear q(1) (or its
        // cone through c) down only to rederive it: the stratification
        // cut-off keeps teardown confined to atoms that actually fall.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.fact("f", [i(1)]).unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("f", [tv("x")]))])
            .unwrap();
        p.rule([atom("c", [tv("x")])], [pos(atom("q", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        state.remove_facts([(e, vec![i(1)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert_eq!(
            state.dred_teardowns(),
            1,
            "only e(1) itself falls; q(1) and c(1) keep their surviving support"
        );
    }

    #[test]
    fn recursive_survivor_still_rederives_through_teardown() {
        // Same diamond shape but with q on a positive cycle (q ← r, r ← q):
        // the cut-off must not apply, and the classic over-delete +
        // rederive equality must still hold.
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.fact("f", [i(1)]).unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("f", [tv("x")]))])
            .unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("r", [tv("x")]))])
            .unwrap();
        p.rule([atom("r", [tv("x")])], [pos(atom("q", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        let before = state.dred_teardowns();
        state.remove_facts([(e, vec![i(1)])]);
        assert_eq!(
            state.ground_program().resolved_rules(),
            ground(state.program()).resolved_rules()
        );
        assert!(
            state.dred_teardowns() > before + 1,
            "recursive q must go through the full over-delete pass"
        );
    }

    #[test]
    fn retraction_log_reports_the_interval() {
        let mut p = Program::new();
        p.fact("e", [i(1)]).unwrap();
        p.rule([atom("q", [tv("x")])], [pos(atom("e", [tv("x")]))])
            .unwrap();
        let mut state = GroundingState::new(&p);
        let e = p.pred_id("e").unwrap();
        let seq0 = state.retraction_seq();
        assert_eq!(state.retractions_since(seq0), Some(Vec::new()));
        state.remove_facts([(e, vec![i(1)])]);
        let since = state.retractions_since(seq0).expect("log covers this");
        // e(1)'s unit rule and the q(1) ← e(1) instance both left.
        assert_eq!(since.len() as u64, state.retraction_seq() - seq0);
        assert_eq!(since.len(), 2);
        // A future sequence number is not this state's past.
        assert_eq!(state.retractions_since(state.retraction_seq() + 1), None);
    }
}
