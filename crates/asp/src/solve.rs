//! A small CNF engine used to enumerate candidate models of ground
//! programs and to decide the minimality sub-problem of the stability
//! test.
//!
//! The encoding of a ground program is built in [`crate::stable`]:
//! rule clauses plus Clark-style support clauses with auxiliary support
//! variables, so every enumerated assignment is a *supported* classical
//! model — a superset of the stable models that avoids the exponential
//! blow-up of unsupported guesses.
//!
//! ## Engine
//!
//! Propagation uses **two watched literals**: each clause of length ≥ 2
//! watches two non-false literals, and only the watch lists of the literal
//! falsified by an assignment are visited.
//!
//! The search is **conflict-driven**: every conflict is analysed to the
//! **first unique implication point** (1UIP), the learned clause is added
//! to a clause store, and the solver backjumps non-chronologically to the
//! assertion level. Learned clauses carry integer activities (bumped when
//! they participate in an analysis, halved every `DECAY_INTERVAL`
//! conflicts) and the store is periodically reduced by **forgetting** the
//! low-activity half — locked clauses (reasons of trail literals) and
//! permanent clauses are kept.
//!
//! Model **enumeration** adds a *blocking clause* per found model (the
//! negation of its decide-variable assignment, level-0 literals omitted)
//! and treats it as a conflict: the search continues in place, with all
//! accumulated learned clauses, instead of restarting per model. Learned
//! clauses are implied by the formula plus the blocking clauses of the
//! already-reported models, so no unreported model is ever pruned (the
//! solver-learning suite checks this by refutation against the basic
//! engine).
//!
//! ## Enumeration order is pinned
//!
//! [`Cnf::for_each_model`] decides variables in **index order, `false`
//! first**, which makes the enumeration order *lexicographic* over the
//! decide range — a canonical order independent of the learning machinery
//! (learned and blocking clauses are implied, so they only skip modelless
//! regions; the next model found is always the lexicographically next
//! one). [`Cnf::for_each_model_basic`] retains the previous chronological
//! engine in its pure index-order form as the oracle this is tested
//! against, sequence-for-sequence.
//!
//! Pure SAT checks ([`Cnf::satisfiable`]) have no order contract, so they
//! branch by **VSIDS** conflict activity instead (bump on analysis, halve
//! at decay, order rebuilt at each decay — highest activity first, index
//! as tie-break), which is where the activity heuristic earns its keep:
//! the coNP minimality sub-checks of the stability test are satisfiability
//! calls.
//!
//! On top of VSIDS the activity policy runs **Luby restarts** with
//! **phase saving**: after `luby(k) · RESTART_UNIT` conflicts the
//! solver cancels to level 0 and re-descends (learned clauses and
//! activities survive, so the restart re-enters the search where the
//! conflict analysis points rather than where the last descent happened
//! to wander), and every cancelled assignment saves its polarity so the
//! next decision on that variable retries it. Both are gated on the
//! activity policy: the enumeration path keeps its pinned lexicographic
//! order and never restarts (a restart would replay blocked models'
//! prefixes; the order contract is the whole point of `Policy::Lex`).
//!
//! ## Incremental solving architecture
//!
//! The pieces below let [`crate::resolve`] keep a **persistent
//! [`crate::resolve::SolverState`]** alive across reground deltas instead
//! of solving every call from scratch:
//!
//! * **Premise-tagged clauses.** [`Cnf::add_clause_premised`] attaches an
//!   opaque tag set (the encoder uses ground-rule slots and per-atom
//!   completion markers) to a clause. Conflict analysis **unions the
//!   premises of every clause it resolves through** — including, for
//!   literals omitted from the learned clause because they are forced at
//!   level 0, the recorded premise of that level-0 assignment — so a
//!   learned clause's premise set names a sub-formula that *implies* it.
//!   Any clause without a tag (blocking clauses of already-enumerated
//!   models, above all) poisons the union to `None`: a clause derived
//!   from a blocking clause is **not** implied by the program and must
//!   never outlive the enumeration that produced it. Premise sets are
//!   capped ([`PREMISE_CAP`]); overflow also poisons to `None` —
//!   untracked is always sound, it merely forfeits reuse.
//! * **Tombstone / watermark rule.** A learned clause exported through
//!   [`Cnf::for_each_model_tracked`] may be re-injected into a *later*
//!   solve iff its premises still hold there — for rule tags, the rule is
//!   still in the (sub)program; for completion markers, the atom's
//!   rule-head set is *unchanged* (a completion clause is definitional
//!   for "exactly these rules can support the atom", so a new or
//!   retracted head rule invalidates it). Rules DRed retracts arrive via
//!   `GroundingState::retractions_since` and tombstone every stored
//!   clause premised on them. Injected clauses are *implied*, so the
//!   lexicographic enumeration contract is untouched: they only skip
//!   modelless regions, exactly like natively learned clauses.
//! * **Warm heuristics.** [`Cnf::satisfiable_warm`] seeds saved phases
//!   and VSIDS activities from a previous run and hands the final values
//!   back; heuristics never affect verdicts, only time-to-verdict.

use std::ops::ControlFlow;

use cqa_relational::{CancelToken, Cancelled};

/// A literal: variable index with polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// Variable index.
    pub var: u32,
    /// `true` for the positive literal.
    pub positive: bool,
}

impl Lit {
    /// Positive literal.
    pub fn pos(var: u32) -> Self {
        Lit {
            var,
            positive: true,
        }
    }

    /// Negative literal.
    pub fn neg(var: u32) -> Self {
        Lit {
            var,
            positive: false,
        }
    }
}

/// Premise sets larger than this poison to untracked (`None`): a learned
/// clause depending on that many distinct premises is unlikely to survive
/// a delta anyway, and the cap bounds the per-conflict union cost.
pub const PREMISE_CAP: usize = 24;

/// A CNF formula.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    pub(crate) clauses: Vec<Vec<Lit>>,
    /// Per-clause premise tags, parallel to `clauses`: `Some(tags)` marks
    /// the clause as implied by the sub-formula the (caller-defined) tags
    /// name; `None` is untracked. See the module docs, "Incremental
    /// solving architecture".
    pub(crate) premises: Vec<Option<Vec<u32>>>,
}

impl Cnf {
    /// Formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
            premises: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Add a clause (empty clause makes the formula unsatisfiable).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.push_normalised(lits, None);
    }

    /// [`Cnf::add_clause`] with a premise tag set attached: conflict
    /// analysis propagates the tags into learned clauses (see module
    /// docs). Tags are opaque to the solver; the encoder defines them.
    pub fn add_clause_premised(
        &mut self,
        lits: impl IntoIterator<Item = Lit>,
        premise: impl IntoIterator<Item = u32>,
    ) {
        let mut p: Vec<u32> = premise.into_iter().collect();
        p.sort_unstable();
        p.dedup();
        let premise = if p.len() > PREMISE_CAP { None } else { Some(p) };
        self.push_normalised(lits, premise);
    }

    fn push_normalised(&mut self, lits: impl IntoIterator<Item = Lit>, premise: Option<Vec<u32>>) {
        let mut c: Vec<Lit> = lits.into_iter().collect();
        c.sort_unstable_by_key(|l| (l.var, l.positive));
        c.dedup();
        // A clause with both polarities of a variable is a tautology.
        for w in c.windows(2) {
            if w[0].var == w[1].var {
                return;
            }
        }
        self.clauses.push(c);
        self.premises.push(premise);
    }

    /// Enumerate all satisfying assignments over the first `decide_vars`
    /// variables (remaining variables must be forced by propagation; if an
    /// assignment leaves one free, both completions are models and the
    /// callback sees the propagated-only projection — the encodings in
    /// this crate guarantee full determination). The callback receives the
    /// full assignment; `Break` stops the enumeration. Models arrive in
    /// lexicographic order of the decide range (`false` < `true`).
    pub fn for_each_model<B>(
        &self,
        decide_vars: usize,
        f: impl FnMut(&[bool]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        self.for_each_model_instrumented(decide_vars, f, |_| {})
    }

    /// [`Cnf::for_each_model`] under a cancellation token: the CDCL outer
    /// loop polls `cancel` once per iteration (every propagation round,
    /// conflict, decision, or model), so `Err(Cancelled)` surfaces within
    /// one propagate/analyze step of the token tripping. Models delivered
    /// before the interrupt are exactly the lexicographic prefix the
    /// uncancelled enumeration would produce.
    pub fn for_each_model_cancellable<B>(
        &self,
        decide_vars: usize,
        cancel: &CancelToken,
        mut f: impl FnMut(&[bool]) -> ControlFlow<B>,
    ) -> Result<ControlFlow<B>, Cancelled> {
        let mut solver = Solver::new(self, decide_vars.min(self.num_vars), Policy::Lex);
        if !solver.init() {
            return Ok(ControlFlow::Continue(()));
        }
        solver.search(cancel, &mut f, &mut |_, _| {})
    }

    /// [`Cnf::for_each_model`] with a tap on the clause-learning stream:
    /// `on_learnt` sees every 1UIP clause the solver learns, in order.
    /// Test instrumentation (the solver-learning suite checks each one is
    /// implied); the enumeration itself is byte-identical.
    pub fn for_each_model_instrumented<B>(
        &self,
        decide_vars: usize,
        mut f: impl FnMut(&[bool]) -> ControlFlow<B>,
        mut on_learnt: impl FnMut(&[Lit]),
    ) -> ControlFlow<B> {
        let mut solver = Solver::new(self, decide_vars.min(self.num_vars), Policy::Lex);
        if !solver.init() {
            return ControlFlow::Continue(());
        }
        solver
            .search(
                &CancelToken::never(),
                &mut f,
                &mut |lits: &[Lit], _premise| on_learnt(lits),
            )
            .expect("never-token search cannot be cancelled")
    }

    /// The previous chronological engine (explicit decision stack, both
    /// phases explored, pure index order, `false` first) — retained as the
    /// enumeration oracle. Sequence-identical to [`Cnf::for_each_model`].
    pub fn for_each_model_basic<B>(
        &self,
        decide_vars: usize,
        mut f: impl FnMut(&[bool]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut solver = BasicSolver::new(self);
        if !solver.init() {
            return ControlFlow::Continue(());
        }
        solver.search(decide_vars.min(self.num_vars), &mut f)
    }

    /// Find one satisfying assignment (the lexicographically smallest over
    /// the full variable range).
    pub fn find_model(&self) -> Option<Vec<bool>> {
        let mut found = None;
        let _ = self.for_each_model(self.num_vars, |m| {
            found = Some(m.to_vec());
            ControlFlow::Break(())
        });
        found
    }

    /// Is the formula satisfiable? Branches by conflict activity (no order
    /// contract — this is the fast path for the stability sub-checks).
    pub fn satisfiable(&self) -> bool {
        self.satisfiable_cancellable(&CancelToken::never())
            .expect("never-token search cannot be cancelled")
    }

    /// [`Cnf::satisfiable`] under a cancellation token, polled once per
    /// CDCL outer-loop iteration.
    pub fn satisfiable_cancellable(&self, cancel: &CancelToken) -> Result<bool, Cancelled> {
        let mut solver = Solver::new(self, self.num_vars, Policy::Activity);
        if !solver.init() {
            return Ok(false);
        }
        let mut sat = false;
        let _flow = solver.search(
            cancel,
            &mut |_m: &[bool]| {
                sat = true;
                ControlFlow::Break(())
            },
            &mut |_, _| {},
        )?;
        Ok(sat)
    }

    /// [`Cnf::for_each_model_cancellable`] with a premise-aware tap on the
    /// clause-learning stream: `on_learnt` sees every 1UIP clause together
    /// with its premise union — `Some(tags)` when every resolved clause
    /// (and every omitted level-0 assignment) was tracked, `None`
    /// otherwise. This is the export surface of the incremental solver:
    /// only `Some`-premised clauses are sound outside this enumeration.
    pub fn for_each_model_tracked<B>(
        &self,
        decide_vars: usize,
        cancel: &CancelToken,
        mut f: impl FnMut(&[bool]) -> ControlFlow<B>,
        mut on_learnt: impl FnMut(&[Lit], Option<&[u32]>),
    ) -> Result<ControlFlow<B>, Cancelled> {
        let mut solver = Solver::new(self, decide_vars.min(self.num_vars), Policy::Lex);
        if !solver.init() {
            return Ok(ControlFlow::Continue(()));
        }
        solver.search(cancel, &mut f, &mut on_learnt)
    }

    /// [`Cnf::satisfiable_cancellable`] warm-started from saved phases and
    /// VSIDS activities (shorter slices seed a prefix), returning the
    /// verdict together with the final phases and activities for the next
    /// warm start. Heuristic state never changes the verdict — only how
    /// fast the search converges on it.
    pub fn satisfiable_warm(
        &self,
        cancel: &CancelToken,
        phases: &[bool],
        activities: &[u64],
    ) -> Result<(bool, Vec<bool>, Vec<u64>), Cancelled> {
        let mut solver = Solver::new(self, self.num_vars, Policy::Activity);
        for (p, &w) in solver.phase.iter_mut().zip(phases) {
            *p = w;
        }
        for (a, &w) in solver.var_act.iter_mut().zip(activities) {
            *a = w;
        }
        let act = &solver.var_act;
        solver
            .order
            .sort_by_key(|&v| (std::cmp::Reverse(act[v as usize]), v));
        if !solver.init() {
            return Ok((false, solver.phase, solver.var_act));
        }
        let mut sat = false;
        let _flow = solver.search(
            cancel,
            &mut |_m: &[bool]| {
                sat = true;
                ControlFlow::Break(())
            },
            &mut |_, _| {},
        )?;
        // Saved phase of an assigned variable is its current value; the
        // cancel-time save in `cancel_until` only covers undone ones.
        let phases_out: Vec<bool> = (0..self.num_vars)
            .map(|v| solver.assign[v].unwrap_or(solver.phase[v]))
            .collect();
        Ok((sat, phases_out, solver.var_act))
    }
}

/// Encoding of a literal as a watch-list slot: `2·var + polarity`.
fn code(lit: Lit) -> usize {
    ((lit.var as usize) << 1) | (lit.positive as usize)
}

/// Conflicts between activity decays (halvings; the activity policy also
/// rebuilds its decision order here).
const DECAY_INTERVAL: u32 = 128;

/// Base restart interval (conflicts) scaled by the Luby sequence — the
/// activity policy restarts after `luby(k) · RESTART_UNIT` conflicts.
const RESTART_UNIT: u64 = 64;

/// The Luby sequence `1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …` (0-indexed): the
/// restart-interval schedule with the optimal universal-strategy bound
/// (Luby–Sinclair–Zuckerman). `x` sits inside some complete balanced
/// subtree of the recursive unfolding; descend to the subtree whose last
/// position it is and return that subtree's power of two.
fn luby(mut x: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Decision-variable picking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Index order, pinned — enumeration is lexicographic.
    Lex,
    /// VSIDS conflict activity, rebuilt at every decay — SAT checks only.
    Activity,
}

/// One stored clause: original, blocking (permanent) or learned
/// (forgettable).
struct Clause {
    lits: Vec<Lit>,
    /// Subject to forgetting (1UIP clauses; blocking clauses are not).
    learnt: bool,
    /// Tombstoned by a database reduction; dropped lazily from watch
    /// lists.
    deleted: bool,
    /// Analysis-participation activity (halved at decay).
    activity: u64,
    /// Premise tags (see [`Cnf::add_clause_premised`]); `None` =
    /// untracked, which poisons any analysis that resolves through it.
    premise: Option<Vec<u32>>,
}

/// Union of two premise sets under the poisoning discipline: `None`
/// absorbs, and a union past [`PREMISE_CAP`] poisons to `None`.
fn union_premise(a: Option<&[u32]>, b: Option<&[u32]>) -> Option<Vec<u32>> {
    let (a, b) = (a?, b?);
    let mut out: Vec<u32> = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    (out.len() <= PREMISE_CAP).then_some(out)
}

/// In-place variant of [`union_premise`] for the analysis accumulator.
fn absorb_premise(acc: &mut Option<Vec<u32>>, extra: Option<&[u32]>) {
    if let Some(have) = acc.take() {
        *acc = union_premise(Some(&have), extra);
    }
}

struct Solver<'a> {
    cnf: &'a Cnf,
    decide_vars: usize,
    policy: Policy,
    clauses: Vec<Clause>,
    /// Assignment: None = unassigned.
    assign: Vec<Option<bool>>,
    /// Decision level of each assigned variable.
    level: Vec<u32>,
    /// Propagating clause of each non-decision assignment.
    reason: Vec<Option<u32>>,
    /// Assigned variables in order.
    trail: Vec<u32>,
    /// Trail length at each decision.
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Per-clause positions of the two watched literals (len ≥ 2 clauses).
    watch_pos: Vec<[usize; 2]>,
    /// Watch lists: literal code → clauses currently watching it.
    watchers: Vec<Vec<u32>>,
    /// VSIDS: per-variable analysis activity.
    var_act: Vec<u64>,
    /// Decision order (index order under `Policy::Lex`, rebuilt at decay
    /// under `Policy::Activity`).
    order: Vec<u32>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    conflicts_since_decay: u32,
    /// Active (non-deleted) learned-clause count and its reduction bound.
    num_learnts: usize,
    max_learnts: usize,
    /// Saved polarities (phase saving): the last value each variable held
    /// before being cancelled. Activity-policy decisions retry it.
    phase: Vec<bool>,
    /// Premise justifying each *level-0* assignment (why the variable is
    /// globally forced). Level-0 literals are omitted from learned
    /// clauses, so their justification must flow into the learned
    /// clause's premise; `None` poisons. Never read for level > 0.
    var_premise: Vec<Option<Vec<u32>>>,
    /// Restarts taken so far (indexes the Luby sequence).
    restarts: u64,
    /// Conflicts since the last restart, against `restart_limit`.
    conflicts_since_restart: u64,
    /// Current restart interval: `luby(restarts) · RESTART_UNIT`.
    restart_limit: u64,
}

impl<'a> Solver<'a> {
    fn new(cnf: &'a Cnf, decide_vars: usize, policy: Policy) -> Self {
        Solver {
            cnf,
            decide_vars,
            policy,
            clauses: Vec::with_capacity(cnf.clauses.len()),
            assign: vec![None; cnf.num_vars],
            level: vec![0; cnf.num_vars],
            reason: vec![None; cnf.num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            watch_pos: Vec::with_capacity(cnf.clauses.len()),
            watchers: vec![Vec::new(); cnf.num_vars * 2],
            var_act: vec![0; cnf.num_vars],
            order: (0..decide_vars as u32).collect(),
            seen: vec![false; cnf.num_vars],
            conflicts_since_decay: 0,
            num_learnts: 0,
            max_learnts: cnf.clauses.len() / 3 + 100,
            phase: vec![false; cnf.num_vars],
            var_premise: vec![None; cnf.num_vars],
            restarts: 0,
            conflicts_since_restart: 0,
            restart_limit: RESTART_UNIT, // luby(0) = 1
        }
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var as usize].map(|v| v == lit.positive)
    }

    /// Make a literal true with the given reason; `false` on conflict with
    /// the current value.
    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) -> bool {
        match self.value(lit) {
            Some(v) => v,
            None => {
                let v = lit.var as usize;
                self.assign[v] = Some(lit.positive);
                self.level[v] = self.current_level();
                self.reason[v] = reason;
                self.trail.push(lit.var);
                if self.trail_lim.is_empty() {
                    // Permanently forced: record why, so analyses that
                    // omit this literal keep a sound premise. A `None`
                    // reason here (decisionless unit, blocking-clause
                    // flip) has no tracked justification.
                    self.var_premise[v] = reason.and_then(|ci| self.level0_premise(ci, lit.var));
                }
                true
            }
        }
    }

    /// Premise of a level-0 propagation out of clause `ci` asserting
    /// `var`: the clause's own premise unioned with the justifications of
    /// the (level-0 false) literals it resolves away.
    fn level0_premise(&self, ci: u32, var: u32) -> Option<Vec<u32>> {
        let clause = &self.clauses[ci as usize];
        let mut acc = clause.premise.clone();
        for l in &clause.lits {
            if l.var == var {
                continue;
            }
            absorb_premise(&mut acc, self.var_premise[l.var as usize].as_deref());
            if acc.is_none() {
                break;
            }
        }
        acc
    }

    /// Load the original clauses: propagate units, watch the first two
    /// literals of longer clauses. `false` if trivially unsatisfiable.
    fn init(&mut self) -> bool {
        for (i, clause) in self.cnf.clauses.iter().enumerate() {
            let premise = self.cnf.premises.get(i).cloned().flatten();
            match clause.len() {
                0 => return false,
                1 => {
                    let lit = clause[0];
                    if !self.enqueue(lit, None) {
                        return false;
                    }
                    // The unit's justification is the clause itself.
                    self.var_premise[lit.var as usize] = premise.clone();
                    self.push_clause(clause.clone(), false, premise);
                }
                _ => {
                    let (c0, c1) = (clause[0], clause[1]);
                    let ci = self.push_clause(clause.clone(), false, premise);
                    self.watch_pos[ci as usize] = [0, 1];
                    self.watchers[code(c0)].push(ci);
                    self.watchers[code(c1)].push(ci);
                }
            }
        }
        self.propagate().is_none()
    }

    fn push_clause(&mut self, lits: Vec<Lit>, learnt: bool, premise: Option<Vec<u32>>) -> u32 {
        let ci = self.clauses.len() as u32;
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0,
            premise,
        });
        self.watch_pos.push([0, 1]);
        if learnt {
            self.num_learnts += 1;
        }
        ci
    }

    /// Attach a clause under the current (partial) assignment, watching
    /// the two best literals: unassigned before false, higher assignment
    /// level before lower — so backtracking past their levels restores the
    /// watch invariant before either can be missed.
    fn attach_under_assignment(
        &mut self,
        lits: Vec<Lit>,
        learnt: bool,
        premise: Option<Vec<u32>>,
    ) -> u32 {
        debug_assert!(lits.len() >= 2);
        let rank = |s: &Self, l: Lit| -> (u8, u32) {
            match s.value(l) {
                None => (0, 0),
                Some(_) => (1, u32::MAX - s.level[l.var as usize]),
            }
        };
        let mut best = [0usize, 1usize];
        if rank(self, lits[best[1]]) < rank(self, lits[best[0]]) {
            best.swap(0, 1);
        }
        for (i, &l) in lits.iter().enumerate().skip(2) {
            let r = rank(self, l);
            if r < rank(self, lits[best[0]]) {
                best[1] = best[0];
                best[0] = i;
            } else if r < rank(self, lits[best[1]]) {
                best[1] = i;
            }
        }
        let (w0, w1) = (lits[best[0]], lits[best[1]]);
        let ci = self.push_clause(lits, learnt, premise);
        self.watch_pos[ci as usize] = [best[0], best[1]];
        self.watchers[code(w0)].push(ci);
        self.watchers[code(w1)].push(ci);
        ci
    }

    /// Two-watched-literal unit propagation to fixpoint; returns the
    /// conflicting clause, if any. Deleted clauses are dropped from watch
    /// lists as they are encountered.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let var = self.trail[self.qhead];
            self.qhead += 1;
            let value = self.assign[var as usize].expect("trail entries are assigned");
            // The literal of `var` that just became false.
            let false_code = ((var as usize) << 1) | (!value as usize);
            let mut i = 0;
            'clauses: while i < self.watchers[false_code].len() {
                let ci = self.watchers[false_code][i] as usize;
                if self.clauses[ci].deleted {
                    self.watchers[false_code].swap_remove(i);
                    continue;
                }
                let [p0, p1] = self.watch_pos[ci];
                let clause = &self.clauses[ci].lits;
                let slot = usize::from(code(clause[p0]) != false_code);
                debug_assert_eq!(code(clause[self.watch_pos[ci][slot]]), false_code);
                let other = clause[if slot == 0 { p1 } else { p0 }];
                if self.value(other) == Some(true) {
                    i += 1;
                    continue; // clause already satisfied by the other watch
                }
                // Look for a replacement watch among the unwatched literals.
                let replacement = clause
                    .iter()
                    .enumerate()
                    .find(|&(j, &l)| j != p0 && j != p1 && self.value(l) != Some(false));
                if let Some((j, &l)) = replacement {
                    self.watch_pos[ci][slot] = j;
                    self.watchers[false_code].swap_remove(i);
                    self.watchers[code(l)].push(ci as u32);
                    continue 'clauses;
                }
                // No replacement: the clause is unit on `other`, or conflicting.
                if !self.enqueue(other, Some(ci as u32)) {
                    return Some(ci as u32);
                }
                i += 1;
            }
        }
        None
    }

    /// Undo the trail above decision level `target`.
    fn cancel_until(&mut self, target: u32) {
        if self.current_level() <= target {
            return;
        }
        let mark = self.trail_lim[target as usize];
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("trail non-empty") as usize;
            self.phase[var] = self.assign[var].expect("trail entries are assigned");
            self.assign[var] = None;
            self.reason[var] = None;
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = mark;
    }

    /// 1UIP conflict analysis: resolve the conflicting clause backwards
    /// along the trail until exactly one current-level literal remains.
    /// Returns the learned clause (asserting literal first, a
    /// highest-remaining-level literal second), the backjump level, and
    /// the premise union over every clause resolved through — including
    /// the justifications of omitted level-0 literals — under the
    /// poisoning discipline of [`union_premise`]. Bumps the activity of
    /// every variable and clause involved.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32, Option<Vec<u32>>) {
        let current = self.current_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 = asserting literal
        let mut premise = self.clauses[confl as usize].premise.clone();
        let mut counter: usize = 0;
        let mut resolved_var: Option<u32> = None;
        let mut idx = self.trail.len();
        loop {
            self.clauses[confl as usize].activity += 1;
            if resolved_var.is_some() {
                // Resolving with a reason clause: its premise joins.
                let reason_premise = self.clauses[confl as usize].premise.clone();
                absorb_premise(&mut premise, reason_premise.as_deref());
            }
            // Indexed walk: `seen`/`var_act` updates alias `self`, so a
            // literal borrow cannot be held across them — but this is the
            // conflict hot loop, so no per-clause allocation either.
            for k in 0..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
                if resolved_var == Some(q.var) {
                    continue; // the literal this clause propagated
                }
                let v = q.var as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_act[v] += 1;
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                } else if self.level[v] == 0 && premise.is_some() {
                    // Omitted from the learned clause: its level-0
                    // justification must join the premise instead.
                    let vp = self.var_premise[v].clone();
                    absorb_premise(&mut premise, vp.as_deref());
                }
            }
            // Walk back to the most recent trail variable involved.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx] as usize] {
                    break;
                }
            }
            let v = self.trail[idx];
            self.seen[v as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = Lit {
                    var: v,
                    positive: !self.assign[v as usize].expect("assigned"),
                };
                break;
            }
            resolved_var = Some(v);
            confl = self.reason[v as usize].expect("non-UIP literals have reasons");
        }
        for l in &learnt[1..] {
            self.seen[l.var as usize] = false;
        }
        // Backjump level: the highest level among the non-asserting
        // literals; move one such literal to slot 1 (the second watch).
        let mut back = 0u32;
        let mut at = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var as usize];
            if lv > back {
                back = lv;
                at = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        (learnt, back, premise)
    }

    /// Count a conflict: decay activities (and rebuild the activity
    /// policy's order) every [`DECAY_INTERVAL`] conflicts.
    fn note_conflict(&mut self) {
        self.conflicts_since_restart += 1;
        self.conflicts_since_decay += 1;
        if self.conflicts_since_decay >= DECAY_INTERVAL {
            self.conflicts_since_decay = 0;
            for a in &mut self.var_act {
                *a >>= 1;
            }
            for c in &mut self.clauses {
                c.activity >>= 1;
            }
            if self.policy == Policy::Activity {
                // Highest activity first; index order breaks ties.
                let act = &self.var_act;
                self.order
                    .sort_by_key(|&v| (std::cmp::Reverse(act[v as usize]), v));
            }
        }
    }

    /// Forget the low-activity half of the learned clauses when the store
    /// outgrows its bound. Locked clauses (reasons of current trail
    /// literals) and permanent clauses (originals, blocking) are kept.
    fn reduce_db(&mut self) {
        if self.num_learnts <= self.max_learnts {
            return;
        }
        let mut locked = vec![false; self.clauses.len()];
        for &v in &self.trail {
            if let Some(ci) = self.reason[v as usize] {
                locked[ci as usize] = true;
            }
        }
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let c = &self.clauses[ci as usize];
                c.learnt && !c.deleted && !locked[ci as usize]
            })
            .collect();
        candidates.sort_by_key(|&ci| (self.clauses[ci as usize].activity, std::cmp::Reverse(ci)));
        let drop = candidates.len() / 2;
        for &ci in &candidates[..drop] {
            let clause = &mut self.clauses[ci as usize];
            clause.deleted = true;
            // Tombstoned clauses are never read again (propagation skips
            // them, and reasons are locked): reclaim the literal storage
            // so long enumerations don't accumulate every clause ever
            // learned.
            clause.lits = Vec::new();
            clause.premise = None;
            self.num_learnts -= 1;
        }
        self.max_learnts += self.max_learnts / 10 + 1;
    }

    /// First unassigned decision variable in the current order.
    fn pick_unassigned(&self) -> Option<u32> {
        self.order
            .iter()
            .copied()
            .find(|&v| self.assign[v as usize].is_none())
    }

    /// Learn a clause (recording it via `on_learnt`), backjump, assert.
    /// `false` when the clause is empty-equivalent (conflict at level 0).
    fn learn_and_backjump(
        &mut self,
        learnt: Vec<Lit>,
        back: u32,
        premise: Option<Vec<u32>>,
        on_learnt: &mut impl FnMut(&[Lit], Option<&[u32]>),
    ) {
        on_learnt(&learnt, premise.as_deref());
        self.cancel_until(back);
        if learnt.len() == 1 {
            let lit = learnt[0];
            let ok = self.enqueue(lit, None);
            debug_assert!(ok, "asserting literal is unassigned after backjump");
            // The learned unit justifies its own level-0 assignment.
            self.var_premise[lit.var as usize] = premise.clone();
            let _ = self.push_clause(learnt, true, premise);
            // Unit clauses never need watches: their literal is on the
            // level-0 trail permanently.
        } else {
            let lit = learnt[0];
            let ci = self.attach_under_assignment(learnt, true, premise);
            let ok = self.enqueue(lit, Some(ci));
            debug_assert!(ok, "asserting literal is unassigned after backjump");
        }
    }

    /// Conflict-driven enumeration: models in lexicographic order of the
    /// decide range under `Policy::Lex` (see module docs); conflicts learn
    /// 1UIP clauses; each model is blocked by a permanent clause and the
    /// search continues in place.
    ///
    /// `cancel` is polled at the head of every outer-loop iteration (one
    /// propagation round / conflict / decision / model), the natural
    /// quantum of solver work; a tripped token returns `Err(Cancelled)`
    /// with the solver state simply abandoned.
    fn search<B>(
        &mut self,
        cancel: &CancelToken,
        f: &mut impl FnMut(&[bool]) -> ControlFlow<B>,
        on_learnt: &mut impl FnMut(&[Lit], Option<&[u32]>),
    ) -> Result<ControlFlow<B>, Cancelled> {
        loop {
            cancel.check()?;
            if let Some(confl) = self.propagate() {
                self.note_conflict();
                if self.current_level() == 0 {
                    return Ok(ControlFlow::Continue(()));
                }
                let (learnt, back, premise) = self.analyze(confl);
                self.learn_and_backjump(learnt, back, premise, on_learnt);
                self.reduce_db();
                continue;
            }
            // Luby restart (activity policy only — Policy::Lex has an
            // enumeration-order contract): cancel to level 0, keeping the
            // learned clauses and activities, and re-descend.
            if self.policy == Policy::Activity
                && self.conflicts_since_restart >= self.restart_limit
                && self.current_level() > 0
            {
                self.conflicts_since_restart = 0;
                self.restarts += 1;
                self.restart_limit = luby(self.restarts) * RESTART_UNIT;
                self.cancel_until(0);
                continue;
            }
            match self.pick_unassigned() {
                Some(var) => {
                    self.trail_lim.push(self.trail.len());
                    // Lex decides false first (the pinned order); the
                    // activity policy retries the saved phase.
                    let positive = match self.policy {
                        Policy::Lex => false,
                        Policy::Activity => self.phase[var as usize],
                    };
                    let ok = self.enqueue(Lit { var, positive }, None);
                    debug_assert!(ok, "decision variables are unassigned");
                }
                None => {
                    // All decision variables assigned: a model. Stragglers
                    // outside the decide range default to false (they are
                    // unconstrained either way).
                    let model: Vec<bool> = self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                    if let ControlFlow::Break(b) = f(&model) {
                        return Ok(ControlFlow::Break(b));
                    }
                    if self.current_level() == 0 {
                        return Ok(ControlFlow::Continue(())); // unique model
                    }
                    // Block the model: the negation of its decide-range
                    // assignment, omitting level-0 (permanently forced)
                    // variables. Permanent — never forgotten.
                    let block: Vec<Lit> = (0..self.decide_vars as u32)
                        .filter(|&v| self.level[v as usize] > 0)
                        .map(|v| Lit {
                            var: v,
                            positive: !self.assign[v as usize].expect("assigned"),
                        })
                        .collect();
                    if block.is_empty() {
                        return Ok(ControlFlow::Continue(()));
                    }
                    if block.len() == 1 {
                        // One free decide variable: flipping it is forced.
                        let lit = block[0];
                        self.push_clause(block, false, None);
                        self.cancel_until(0);
                        if !self.enqueue(lit, None) {
                            return Ok(ControlFlow::Continue(()));
                        }
                        continue;
                    }
                    // Blocking clauses are untracked (`None`): they are
                    // not implied by the formula, so anything learned
                    // from them must stay poisoned.
                    let ci = self.attach_under_assignment(block, false, None);
                    self.note_conflict();
                    let (learnt, back, premise) = self.analyze(ci);
                    self.learn_and_backjump(learnt, back, premise, on_learnt);
                    self.reduce_db();
                }
            }
        }
    }
}

/// One open decision of the basic engine's explicit search stack.
struct Frame {
    /// The decision variable.
    var: u32,
    /// Trail length before this decision was made.
    mark: usize,
    /// `true` once the second phase (`true`) has been entered.
    flipped: bool,
}

/// The previous chronological engine, in pure index order: two watched
/// literals, explicit decision stack, both phases of every decision
/// explored, `false` first. Kept as the enumeration oracle — its model
/// sequence is the contract [`Cnf::for_each_model`] is held to — and as
/// the refutation backend of the solver-learning suite.
struct BasicSolver<'a> {
    cnf: &'a Cnf,
    assign: Vec<Option<bool>>,
    trail: Vec<u32>,
    qhead: usize,
    watch_pos: Vec<[usize; 2]>,
    watchers: Vec<Vec<u32>>,
}

impl<'a> BasicSolver<'a> {
    fn new(cnf: &'a Cnf) -> Self {
        BasicSolver {
            cnf,
            assign: vec![None; cnf.num_vars],
            trail: Vec::new(),
            qhead: 0,
            watch_pos: vec![[0, 1]; cnf.clauses.len()],
            watchers: vec![Vec::new(); cnf.num_vars * 2],
        }
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var as usize].map(|v| v == lit.positive)
    }

    fn enqueue(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            Some(v) => v,
            None => {
                self.assign[lit.var as usize] = Some(lit.positive);
                self.trail.push(lit.var);
                true
            }
        }
    }

    fn init(&mut self) -> bool {
        for (ci, clause) in self.cnf.clauses.iter().enumerate() {
            match clause.len() {
                0 => return false,
                1 => {
                    if !self.enqueue(clause[0]) {
                        return false;
                    }
                }
                _ => {
                    self.watchers[code(clause[0])].push(ci as u32);
                    self.watchers[code(clause[1])].push(ci as u32);
                }
            }
        }
        self.propagate()
    }

    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let var = self.trail[self.qhead];
            self.qhead += 1;
            let value = self.assign[var as usize].expect("trail entries are assigned");
            let false_code = ((var as usize) << 1) | (!value as usize);
            let mut i = 0;
            'clauses: while i < self.watchers[false_code].len() {
                let ci = self.watchers[false_code][i] as usize;
                let clause = &self.cnf.clauses[ci];
                let [p0, p1] = self.watch_pos[ci];
                let slot = usize::from(code(clause[p0]) != false_code);
                let other = clause[if slot == 0 { p1 } else { p0 }];
                if self.value(other) == Some(true) {
                    i += 1;
                    continue;
                }
                for (j, &l) in clause.iter().enumerate() {
                    if j != p0 && j != p1 && self.value(l) != Some(false) {
                        self.watch_pos[ci][slot] = j;
                        self.watchers[false_code].swap_remove(i);
                        self.watchers[code(l)].push(ci as u32);
                        continue 'clauses;
                    }
                }
                if !self.enqueue(other) {
                    return false;
                }
                i += 1;
            }
        }
        true
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("trail non-empty");
            self.assign[var as usize] = None;
        }
        self.qhead = mark;
    }

    fn decide(&mut self, var: u32, value: bool) -> bool {
        let ok = self.enqueue(Lit {
            var,
            positive: value,
        });
        debug_assert!(ok, "decision variables are unassigned");
        self.propagate()
    }

    fn advance(&mut self, frames: &mut Vec<Frame>) -> bool {
        while let Some(top) = frames.last_mut() {
            if top.flipped {
                let mark = top.mark;
                self.undo_to(mark);
                frames.pop();
                continue;
            }
            top.flipped = true;
            let (var, mark) = (top.var, top.mark);
            self.undo_to(mark);
            if self.decide(var, true) {
                return true;
            }
        }
        false
    }

    fn search<B>(
        &mut self,
        decide_vars: usize,
        f: &mut impl FnMut(&[bool]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut frames: Vec<Frame> = Vec::new();
        loop {
            let next = (0..decide_vars as u32).find(|&v| self.assign[v as usize].is_none());
            match next {
                None => {
                    let model: Vec<bool> = self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                    f(&model)?;
                    if !self.advance(&mut frames) {
                        return ControlFlow::Continue(());
                    }
                }
                Some(var) => {
                    let mark = self.trail.len();
                    frames.push(Frame {
                        var,
                        mark,
                        flipped: false,
                    });
                    if !self.decide(var, false) && !self.advance(&mut frames) {
                        return ControlFlow::Continue(());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::testing::XorShift;

    fn all_models(cnf: &Cnf) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        let _ = cnf.for_each_model(cnf.num_vars(), |m| {
            out.push(m.to_vec());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    fn all_models_basic(cnf: &Cnf) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        let _ = cnf.for_each_model_basic(cnf.num_vars(), |m| {
            out.push(m.to_vec());
            ControlFlow::<()>::Continue(())
        });
        out
    }

    #[test]
    fn single_clause_three_models() {
        // x ∨ y has models {01, 10, 11}.
        let mut cnf = Cnf::new(2);
        cnf.add_clause([Lit::pos(0), Lit::pos(1)]);
        let models = all_models(&cnf);
        assert_eq!(models.len(), 3);
        assert!(!models.contains(&vec![false, false]));
    }

    #[test]
    fn unit_propagation_chains() {
        // x; ¬x ∨ y; ¬y ∨ z → unique model 111.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(0)]);
        cnf.add_clause([Lit::neg(0), Lit::pos(1)]);
        cnf.add_clause([Lit::neg(1), Lit::pos(2)]);
        assert_eq!(all_models(&cnf), vec![vec![true, true, true]]);
    }

    #[test]
    fn unsat_detected() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([Lit::pos(0)]);
        cnf.add_clause([Lit::neg(0)]);
        assert!(!cnf.satisfiable());
        assert!(all_models(&cnf).is_empty());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([]);
        assert!(!cnf.satisfiable());
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([Lit::pos(0), Lit::neg(0)]);
        assert_eq!(cnf.num_clauses(), 0);
        assert_eq!(all_models(&cnf).len(), 2);
    }

    #[test]
    fn models_enumerated_false_first() {
        // Free variable: false branch explored first.
        let cnf = Cnf::new(1);
        let models = all_models(&cnf);
        assert_eq!(models, vec![vec![false], vec![true]]);
    }

    #[test]
    fn break_stops_enumeration() {
        let cnf = Cnf::new(3);
        let mut count = 0;
        let _ = cnf.for_each_model(3, |_| {
            count += 1;
            if count == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn duplicate_literals_collapse() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([Lit::pos(0), Lit::pos(0)]);
        assert_eq!(all_models(&cnf), vec![vec![true]]);
    }

    #[test]
    fn find_model_returns_satisfying_assignment() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause([Lit::neg(1)]);
        let m = cnf.find_model().unwrap();
        assert!(m[0]);
        assert!(!m[1]);
    }

    /// Deterministic pseudo-random CNF over the workspace's [`XorShift`]
    /// — the same generator every property suite uses.
    fn random_cnf(rng: &mut XorShift, vars: usize, clauses: usize) -> Cnf {
        let mut cnf = Cnf::new(vars);
        for _ in 0..clauses {
            let len = 1 + rng.below(3);
            let lits: Vec<Lit> = (0..len)
                .map(|_| {
                    let v = rng.below(vars) as u32;
                    if rng.chance(1, 2) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            cnf.add_clause(lits);
        }
        cnf
    }

    #[test]
    fn cdcl_enumeration_matches_basic_engine() {
        // The learning engine must reproduce the chronological engine's
        // model *sequence* — same models, same order — on random formulas.
        let mut seed = XorShift::new(611);
        for round in 0..300 {
            let vars = 2 + (round % 7);
            let cnf = random_cnf(&mut seed, vars, 2 + (round % 11));
            assert_eq!(
                all_models(&cnf),
                all_models_basic(&cnf),
                "round {round}: {:?}",
                cnf
            );
        }
    }

    #[test]
    fn cdcl_partial_decide_range_matches_basic_engine() {
        let mut seed = XorShift::new(612);
        for round in 0..100 {
            let vars = 3 + (round % 5);
            let cnf = random_cnf(&mut seed, vars, 3 + (round % 7));
            for decide in 1..=vars {
                let mut a = Vec::new();
                let _ = cnf.for_each_model(decide, |m| {
                    a.push(m.to_vec());
                    ControlFlow::<()>::Continue(())
                });
                let mut b = Vec::new();
                let _ = cnf.for_each_model_basic(decide, |m| {
                    b.push(m.to_vec());
                    ControlFlow::<()>::Continue(())
                });
                assert_eq!(a, b, "round {round} decide {decide}: {cnf:?}");
            }
        }
    }

    #[test]
    fn satisfiable_agrees_with_enumeration() {
        let mut seed = XorShift::new(613);
        for round in 0..200 {
            let vars = 2 + (round % 6);
            let cnf = random_cnf(&mut seed, vars, 2 + (round % 9));
            assert_eq!(
                cnf.satisfiable(),
                !all_models_basic(&cnf).is_empty(),
                "round {round}: {cnf:?}"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    /// A pigeonhole instance PHP(n+1, n): n+1 pigeons into n holes —
    /// unsatisfiable, and hard enough to force many conflicts, which is
    /// what drives `satisfiable()` through its restart schedule.
    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| (p * holes + h) as u32;
        let mut cnf = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| Lit::pos(var(p, h))));
        }
        for h in 0..holes {
            for p in 0..pigeons {
                for q in (p + 1)..pigeons {
                    cnf.add_clause([Lit::neg(var(p, h)), Lit::neg(var(q, h))]);
                }
            }
        }
        cnf
    }

    #[test]
    fn restarts_preserve_unsat_on_pigeonhole() {
        // PHP(7,6) needs well over RESTART_UNIT conflicts: several Luby
        // restarts fire and the verdict must still be UNSAT (learned
        // clauses survive restarts, so the refutation completes).
        assert!(!pigeonhole(6).satisfiable());
        // And a satisfiable variant (drop one pigeon's at-most-one pairs
        // by using n pigeons) stays SAT through restarts.
        let mut sat = pigeonhole(6);
        sat.clauses.truncate(sat.clauses.len() - 7); // drop some exclusions
        let _ = sat.satisfiable(); // no contract beyond termination here
    }

    #[test]
    fn satisfiable_with_restarts_agrees_with_enumeration_on_larger_formulas() {
        // Wider/denser random formulas than the base suite, sized to
        // cross the first restart thresholds on the unsat instances.
        let mut seed = XorShift::new(614);
        for round in 0..60 {
            let vars = 6 + (round % 8);
            let cnf = random_cnf(&mut seed, vars, 14 + 2 * (round % 13));
            assert_eq!(
                cnf.satisfiable(),
                !all_models_basic(&cnf).is_empty(),
                "round {round}: {cnf:?}"
            );
        }
    }

    #[test]
    fn enumeration_order_unaffected_by_restart_machinery() {
        // The Lex policy must never restart: its model sequence on a
        // conflict-heavy formula stays identical to the basic engine even
        // when the conflict count crosses the restart thresholds.
        let mut seed = XorShift::new(615);
        for round in 0..40 {
            let vars = 4 + (round % 6);
            let cnf = random_cnf(&mut seed, vars, 10 + (round % 9));
            assert_eq!(all_models(&cnf), all_models_basic(&cnf), "round {round}");
        }
    }

    /// Brute-force implication check: no assignment satisfies every
    /// clause in `subset` while falsifying `clause`.
    fn implied_by(cnf: &Cnf, subset: &[u32], clause: &[Lit], vars: usize) -> bool {
        for bits in 0..(1u32 << vars) {
            let val = |l: Lit| ((bits >> l.var) & 1 == 1) == l.positive;
            let sub_ok = subset
                .iter()
                .all(|&ci| cnf.clauses[ci as usize].iter().any(|&l| val(l)));
            if sub_ok && !clause.iter().any(|&l| val(l)) {
                return false;
            }
        }
        true
    }

    #[test]
    fn tracked_premises_imply_their_learned_clauses() {
        // Tag every clause with its own index; then each learned clause
        // carrying `Some(premise)` must be implied by *those clauses
        // alone* — the soundness contract reuse across deltas rests on.
        let mut seed = XorShift::new(711);
        let mut tracked = 0usize;
        for round in 0..150 {
            let vars = 3 + (round % 6);
            let plain = random_cnf(&mut seed, vars, 4 + (round % 9));
            let mut cnf = Cnf::new(vars);
            for (i, c) in plain.clauses.iter().enumerate() {
                cnf.add_clause_premised(c.iter().copied(), [i as u32]);
            }
            let mut learned: Vec<(Vec<Lit>, Option<Vec<u32>>)> = Vec::new();
            let _ = cnf
                .for_each_model_tracked(
                    vars,
                    &CancelToken::never(),
                    |_m| ControlFlow::<()>::Continue(()),
                    |lits, premise| learned.push((lits.to_vec(), premise.map(<[u32]>::to_vec))),
                )
                .unwrap();
            for (lits, premise) in &learned {
                if let Some(premise) = premise {
                    tracked += 1;
                    assert!(
                        implied_by(&cnf, premise, lits, vars),
                        "round {round}: learned {lits:?} not implied by premises {premise:?} of {cnf:?}"
                    );
                }
            }
        }
        assert!(tracked > 0, "the sweep must exercise tracked learning");
    }

    #[test]
    fn warm_start_never_changes_the_verdict() {
        let mut seed = XorShift::new(713);
        let mut phases: Vec<bool> = Vec::new();
        let mut acts: Vec<u64> = Vec::new();
        for round in 0..80 {
            let vars = 4 + (round % 6);
            let cnf = random_cnf(&mut seed, vars, 6 + (round % 9));
            let (sat, p, a) = cnf
                .satisfiable_warm(&CancelToken::never(), &phases, &acts)
                .unwrap();
            assert_eq!(sat, cnf.satisfiable(), "round {round}: {cnf:?}");
            // Feed each round's heuristics into the next (sizes differ on
            // purpose: seeding is prefix-tolerant).
            (phases, acts) = (p, a);
        }
    }

    #[test]
    fn learned_clauses_are_reported() {
        // A formula that forces at least one conflict under lex order:
        // deciding 0=false propagates nothing, deciding 1=false conflicts
        // with (0 ∨ 1) after ¬0 ∨ ¬1 forces... construct a pigeonhole-ish
        // instance instead and just require the tap to fire.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([Lit::pos(0), Lit::pos(1)]);
        cnf.add_clause([Lit::pos(0), Lit::neg(1)]);
        cnf.add_clause([Lit::neg(0), Lit::pos(2)]);
        cnf.add_clause([Lit::neg(0), Lit::neg(2), Lit::pos(3)]);
        let mut learnt: Vec<Vec<Lit>> = Vec::new();
        let _ = cnf.for_each_model_instrumented(
            4,
            |_m| ControlFlow::<()>::Continue(()),
            |c| learnt.push(c.to_vec()),
        );
        assert!(
            !learnt.is_empty(),
            "lex enumeration of this formula conflicts"
        );
    }
}
