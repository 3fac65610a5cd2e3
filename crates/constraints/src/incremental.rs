//! Index-driven and *incremental* violation finding.
//!
//! The naive evaluator in [`crate::satisfaction`] joins constraint bodies
//! by nested full-relation scans and re-checks the whole instance after
//! every change. This module replaces both hot loops:
//!
//! * **Index-driven joins.** Body matching probes the secondary hash
//!   indexes of [`cqa_relational::index`] instead of scanning: at every
//!   join depth, the candidate set for an atom is the bucket of its
//!   determined columns (constants and already-bound join variables),
//!   listed by [`Candidates`] — the enumerator query evaluation shares,
//!   which lives in `cqa-relational`. One determined column probes its
//!   `ColumnIndex`, several probe the *composite* index of the exact
//!   column set, so a multi-attribute FD/key/IC probe is a single
//!   packed-key lookup with no residual filtering on determined positions.
//!   The checker builds each index on first use
//!   ([`IndexBuild::OnFirstUse`]); the instance keeps it. Buckets are
//!   `BTreeSet<Tuple>`, so swapping a scan for a probe never changes match
//!   enumeration order — the indexed full check ([`crate::violations`]) reports
//!   exactly the naive order, which the property suite pins down. With
//!   interned values ([`cqa_relational::symbol`]), every probe hashes and
//!   compares integers, independent of string content.
//! * **Seeded (delta) matching.** [`violations_touching`] re-checks only
//!   the ground instantiations that can involve a changed atom: inserted
//!   tuples are pinned into each compatible body position, removed tuples
//!   are inverted through the head atoms they may have witnessed. After a
//!   pinned seed, the remaining body atoms are joined
//!   *most-selective-first*: repeatedly pick the atom with the most
//!   determined columns (tie-break: smaller relation, then body order).
//!   This is the paper's tractability observation made operational —
//!   repairs differ from `D` only on the Proposition-1 universe, so search
//!   steps touch few atoms and re-checking cost should scale with the
//!   change, not the instance.
//!
//! Completeness of the delta rule (single- or multi-atom [`Delta`], against
//! the *post-change* instance): a ground body assignment `σ` violated in
//! `D′` but not in `D` either gained a body atom (some inserted atom occurs
//! in `σ`'s body match — found by pinning that atom) or lost its last head
//! witness (every witness was removed; any one of them seeds the inverted
//! head match that rediscovers `σ`). IsNull escapes and builtin disjuncts
//! depend only on `σ` itself and never flip. NOT NULL violations can only
//! be created by insertions, which are checked directly.

use crate::ast::{Constraint, Ic, IcAtom, IcSet, Term, VarId};
use crate::satisfaction::{phi_escape, SatMode, Violation, ViolationKind};
use cqa_relational::{Candidates, DatabaseAtom, Delta, IndexBuild, Instance, Tuple, Value};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

// The incremental-checking state must be cheap to fork and safe to move
// across threads: the parallel repair search hands each worker its own
// instance fork and ships worklists of [`Violation`]s between workers as
// work-stealing task payloads. [`Candidates`] holds `Arc` index snapshots
// (fork = refcount bump) and interned `Copy` values, so both properties
// are structural; these witnesses turn any accidental `!Send` (an `Rc`, a
// raw pointer) into a compile error.
const _: () = {
    use cqa_relational::testing::{assert_send, assert_sync};
    assert_send::<Candidates<'static>>();
    assert_sync::<Candidates<'static>>();
    assert_send::<Violation>();
    assert_sync::<Violation>();
    assert_send::<IcSet>();
    assert_sync::<IcSet>();
};

/// The candidate tuples for one atom under current bindings: the bucket
/// of its determined `checked` columns (a constant or an already-bound
/// variable), collected in ascending position order — the canonical order
/// of a composite index.
fn candidates<'a>(
    instance: &'a Instance,
    atom: &IcAtom,
    bindings: &[Option<Value>],
    checked: impl Fn(usize) -> bool,
) -> Candidates<'a> {
    let mut cols: Vec<usize> = Vec::with_capacity(atom.terms.len());
    let mut values: Vec<Value> = Vec::with_capacity(atom.terms.len());
    for (pos, term) in atom.terms.iter().enumerate() {
        if !checked(pos) {
            continue;
        }
        let value = match term {
            Term::Const(c) => *c,
            Term::Var(v) => match bindings[v.index()] {
                Some(bound) => bound,
                None => continue,
            },
        };
        cols.push(pos);
        values.push(value);
    }
    Candidates::new(instance, atom.rel, &cols, &values, IndexBuild::OnFirstUse)
}

/// Try to extend `bindings` with `tuple` matched against `atom`.
/// Returns the newly bound variables, or `None` (bindings restored).
fn try_match(atom: &IcAtom, tuple: &Tuple, bindings: &mut [Option<Value>]) -> Option<Vec<VarId>> {
    let mut newly: Vec<VarId> = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        let val = tuple.get(pos);
        let ok = match term {
            Term::Const(c) => val == c,
            Term::Var(v) => match &bindings[v.index()] {
                Some(bound) => bound == val,
                None => {
                    bindings[v.index()] = Some(*val);
                    newly.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in &newly {
                bindings[v.index()] = None;
            }
            return None;
        }
    }
    Some(newly)
}

fn unbind(bindings: &mut [Option<Value>], vars: &[VarId]) {
    for v in vars {
        bindings[v.index()] = None;
    }
}

/// Number of determined columns of a body atom under current bindings
/// (constants count; so do bound variables).
fn determined_cols(atom: &IcAtom, bindings: &[Option<Value>]) -> usize {
    atom.terms
        .iter()
        .filter(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bindings[v.index()].is_some(),
        })
        .count()
}

/// A body-join pass over one constraint: joins the body atoms listed in
/// `order[depth..]` (indices into `ic.body()`), extending
/// `bindings`/`atoms`, and calls `f` on every full assignment. `atoms` is
/// indexed by *body position* so violations report matches in declaration
/// order regardless of join order.
///
/// When `greedy` is set, the next atom is re-chosen at every depth by
/// selectivity (most determined columns first); otherwise `order` is
/// followed as given.
struct Join<'a> {
    instance: &'a Instance,
    ic: &'a Ic,
    greedy: bool,
}

impl Join<'_> {
    fn run<B>(
        &self,
        order: &mut Vec<usize>,
        depth: usize,
        bindings: &mut Vec<Option<Value>>,
        atoms: &mut Vec<Option<DatabaseAtom>>,
        f: &mut impl FnMut(&[Option<Value>], &[Option<DatabaseAtom>]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if depth == order.len() {
            return f(bindings, atoms);
        }
        if self.greedy {
            // Most-selective-atom-first: most determined columns, then
            // smaller relation, then body order (deterministic).
            let best = (depth..order.len())
                .min_by_key(|&i| {
                    let atom = &self.ic.body()[order[i]];
                    (
                        usize::MAX - determined_cols(atom, bindings),
                        self.instance.relation(atom.rel).len(),
                        order[i],
                    )
                })
                .expect("non-empty suffix");
            order.swap(depth, best);
        }
        let body_idx = order[depth];
        let atom = &self.ic.body()[body_idx];
        let cands = candidates(self.instance, atom, bindings, |_| true);
        cands.iter().try_for_each(|t| {
            let Some(newly) = try_match(atom, t, bindings) else {
                return ControlFlow::Continue(());
            };
            atoms[body_idx] = Some(DatabaseAtom::new(atom.rel, t.clone()));
            let res = self.run(order, depth + 1, bindings, atoms, f);
            atoms[body_idx] = None;
            unbind(bindings, &newly);
            res
        })
    }
}

/// Does some tuple witness `atom` under the assignment, matching only
/// `checked` positions? Index-probed version of the naive
/// `head_witness`: probe on the determined *checked* columns (one column
/// → its hash index, several → the exact composite index), then verify
/// the remaining checked positions (existential variables must repeat
/// consistently within the atom).
fn head_witness_indexed(
    instance: &Instance,
    ic: &Ic,
    atom: &IcAtom,
    mode: SatMode,
    bindings: &[Option<Value>],
) -> bool {
    let checked = |pos: usize| match mode {
        SatMode::NullAware => ic.relevant().is_relevant(atom.rel, pos),
        SatMode::Classical => true,
    };
    let cands = candidates(instance, atom, bindings, checked);
    let found = cands.iter().try_for_each(|t| {
        let mut local: BTreeMap<VarId, &Value> = BTreeMap::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            if !checked(pos) {
                continue;
            }
            let val = t.get(pos);
            let ok = match term {
                Term::Const(c) => val == c,
                Term::Var(v) => match &bindings[v.index()] {
                    Some(bound) => bound == val,
                    None => match local.get(v) {
                        Some(prev) => *prev == val,
                        None => {
                            local.insert(*v, val);
                            true
                        }
                    },
                },
            };
            if !ok {
                return ControlFlow::Continue(());
            }
        }
        ControlFlow::Break(())
    });
    found.is_break()
}

/// Is the ground constraint satisfied under a full body assignment?
/// (IsNull escape ∨ ϕ ∨ some head witness, all index-probed.)
pub(crate) fn ground_satisfied_indexed(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    bindings: &[Option<Value>],
) -> bool {
    if mode == SatMode::NullAware {
        for v in ic.relevant().escape_vars() {
            if matches!(bindings[v.index()], Some(Value::Null)) {
                return true;
            }
        }
    }
    if phi_escape(ic, bindings) {
        return true;
    }
    ic.head()
        .iter()
        .any(|atom| head_witness_indexed(instance, ic, atom, mode, bindings))
}

/// Indexed full check of one TGD: joins in body order (so violations are
/// reported in exactly the naive order) but with index probes at every
/// depth, and index-probed witness checks.
pub(crate) fn tgd_violations_indexed<B>(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    f: &mut impl FnMut(&[Option<Value>], Vec<DatabaseAtom>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut order: Vec<usize> = (0..ic.body().len()).collect();
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    let mut atoms: Vec<Option<DatabaseAtom>> = vec![None; ic.body().len()];
    let join = Join {
        instance,
        ic,
        greedy: false,
    };
    join.run(
        &mut order,
        0,
        &mut bindings,
        &mut atoms,
        &mut |bindings, atoms| {
            if ground_satisfied_indexed(instance, ic, mode, bindings) {
                return ControlFlow::Continue(());
            }
            let ground: Vec<DatabaseAtom> = atoms
                .iter()
                .map(|a| a.clone().expect("full assignment"))
                .collect();
            f(bindings, ground)
        },
    )
}

/// Seeded check: pin body position `pin` to `tuple`, join the remaining
/// atoms most-selective-first, and report violating assignments.
fn seeded_tgd_violations<B>(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    pin: usize,
    tuple: &Tuple,
    f: &mut impl FnMut(&[Option<Value>], Vec<DatabaseAtom>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    let mut atoms: Vec<Option<DatabaseAtom>> = vec![None; ic.body().len()];
    let atom = &ic.body()[pin];
    let Some(_newly) = try_match(atom, tuple, &mut bindings) else {
        return ControlFlow::Continue(());
    };
    atoms[pin] = Some(DatabaseAtom::new(atom.rel, tuple.clone()));
    let mut order: Vec<usize> = (0..ic.body().len()).filter(|&i| i != pin).collect();
    let join = Join {
        instance,
        ic,
        greedy: true,
    };
    join.run(
        &mut order,
        0,
        &mut bindings,
        &mut atoms,
        &mut |bindings, atoms| {
            if ground_satisfied_indexed(instance, ic, mode, bindings) {
                return ControlFlow::Continue(());
            }
            let ground: Vec<DatabaseAtom> = atoms
                .iter()
                .map(|a| a.clone().expect("full assignment"))
                .collect();
            f(bindings, ground)
        },
    )
}

/// Inverted head match: the partial assignment of universal variables a
/// removed tuple imposes on bodies it may have witnessed through `atom`.
/// `None` means the tuple cannot have witnessed anything via this atom.
fn head_seed_bindings(
    ic: &Ic,
    atom: &IcAtom,
    tuple: &Tuple,
    mode: SatMode,
) -> Option<Vec<Option<Value>>> {
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    for (pos, term) in atom.terms.iter().enumerate() {
        let checked = match mode {
            SatMode::NullAware => ic.relevant().is_relevant(atom.rel, pos),
            SatMode::Classical => true,
        };
        if !checked {
            continue;
        }
        let val = tuple.get(pos);
        match term {
            Term::Const(c) => {
                if val != c {
                    return None;
                }
            }
            Term::Var(v) if ic.universal_vars().contains(v) => match &bindings[v.index()] {
                Some(bound) if bound != val => return None,
                Some(_) => {}
                None => bindings[v.index()] = Some(*val),
            },
            // Existential: constrains nothing about the body assignment
            // (only the witness itself had to repeat it consistently).
            Term::Var(_) => {}
        }
    }
    Some(bindings)
}

/// Violations of `ics` in `instance` that can involve an atom of `delta`.
///
/// `instance` must be the *post-change* instance (`delta` already applied).
/// Together with re-validating previously known violations, the result is
/// a complete account of `violations(instance)` — see the module docs for
/// the argument. Output is deterministic (constraint order, then seed
/// order, then join order) and de-duplicated.
pub fn violations_touching(
    instance: &Instance,
    ics: &IcSet,
    delta: &Delta,
    mode: SatMode,
) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    let push = |v: Violation, out: &mut Vec<Violation>| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    for (index, constraint) in ics.constraints().iter().enumerate() {
        match constraint {
            Constraint::NotNull(nnc) => {
                for a in &delta.inserted {
                    if a.rel == nnc.rel
                        && a.tuple.get(nnc.position).is_null()
                        && instance.contains(a)
                    {
                        push(
                            Violation {
                                constraint_index: index,
                                kind: ViolationKind::NotNull {
                                    atom: a.clone(),
                                    position: nnc.position,
                                },
                            },
                            &mut out,
                        );
                    }
                }
            }
            Constraint::Tgd(ic) => {
                // (a) an inserted atom joins into a body position.
                for a in &delta.inserted {
                    if !instance.contains(a) {
                        continue;
                    }
                    for (k, batom) in ic.body().iter().enumerate() {
                        if batom.rel != a.rel {
                            continue;
                        }
                        let _ = seeded_tgd_violations(
                            instance,
                            ic,
                            mode,
                            k,
                            &a.tuple,
                            &mut |bindings, ground| {
                                push(
                                    Violation {
                                        constraint_index: index,
                                        kind: ViolationKind::Tgd {
                                            bindings: bindings.to_vec(),
                                            body_atoms: ground,
                                        },
                                    },
                                    &mut out,
                                );
                                ControlFlow::<()>::Continue(())
                            },
                        );
                    }
                }
                // (b) a removed atom may have been the last head witness.
                for a in &delta.removed {
                    if instance.contains(a) {
                        continue;
                    }
                    for hatom in ic.head() {
                        if hatom.rel != a.rel {
                            continue;
                        }
                        let Some(seed) = head_seed_bindings(ic, hatom, &a.tuple, mode) else {
                            continue;
                        };
                        let mut bindings = seed;
                        let mut atoms: Vec<Option<DatabaseAtom>> = vec![None; ic.body().len()];
                        let mut order: Vec<usize> = (0..ic.body().len()).collect();
                        let join = Join {
                            instance,
                            ic,
                            greedy: true,
                        };
                        let _ = join.run(
                            &mut order,
                            0,
                            &mut bindings,
                            &mut atoms,
                            &mut |bindings, atoms| {
                                if !ground_satisfied_indexed(instance, ic, mode, bindings) {
                                    let ground: Vec<DatabaseAtom> = atoms
                                        .iter()
                                        .map(|x| x.clone().expect("full assignment"))
                                        .collect();
                                    push(
                                        Violation {
                                            constraint_index: index,
                                            kind: ViolationKind::Tgd {
                                                bindings: bindings.to_vec(),
                                                body_atoms: ground,
                                            },
                                        },
                                        &mut out,
                                    );
                                }
                                ControlFlow::<()>::Continue(())
                            },
                        );
                    }
                }
            }
        }
    }
    out
}

/// Is a previously reported violation still a violation of `instance`?
/// O(violation size) plus index-probed witness checks — the worklist
/// re-validation step of the incremental repair engine.
pub fn violation_active(
    instance: &Instance,
    ics: &IcSet,
    violation: &Violation,
    mode: SatMode,
) -> bool {
    match &violation.kind {
        ViolationKind::NotNull { atom, .. } => instance.contains(atom),
        ViolationKind::Tgd {
            bindings,
            body_atoms,
        } => {
            let ic = ics.constraints()[violation.constraint_index]
                .as_ic()
                .expect("Tgd violation indexes a form-(1) constraint");
            body_atoms.iter().all(|a| instance.contains(a))
                && !ground_satisfied_indexed(instance, ic, mode, bindings)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{v, Constraint, Ic, IcSet, Nnc};
    use crate::satisfaction::violations_naive;
    use cqa_relational::{null, s, Schema, Value};
    use std::sync::Arc as StdArc;

    fn schema() -> StdArc<Schema> {
        Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared()
    }

    fn build(rows: &[(&str, Vec<Value>)]) -> Instance {
        let mut d = Instance::empty(schema());
        for (rel, vals) in rows {
            d.insert_named(rel, Tuple::new(vals.clone())).unwrap();
        }
        d
    }

    fn ric() -> IcSet {
        let sc = schema();
        let ic = Ic::builder(&sc, "ric")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x"), v("z")])
            .finish()
            .unwrap();
        IcSet::new([Constraint::from(ic)])
    }

    #[test]
    fn insert_into_body_is_caught() {
        let mut d = build(&[("P", vec![s("a"), s("b")]), ("R", vec![s("a"), s("c")])]);
        let ics = ric();
        assert!(violations_touching(&d, &ics, &Delta::default(), SatMode::NullAware).is_empty());
        let p = d.schema().rel_id("P").unwrap();
        let atom = DatabaseAtom::new(p, Tuple::new(vec![s("q"), s("r")]));
        d.insert(p, atom.tuple.clone()).unwrap();
        let touched = violations_touching(&d, &ics, &Delta::insertion(atom), SatMode::NullAware);
        assert_eq!(touched.len(), 1);
        assert_eq!(touched, violations_naive(&d, &ics, SatMode::NullAware));
    }

    #[test]
    fn remove_of_last_witness_is_caught() {
        let mut d = build(&[("P", vec![s("a"), s("b")]), ("R", vec![s("a"), s("c")])]);
        let ics = ric();
        let r = d.schema().rel_id("R").unwrap();
        let atom = DatabaseAtom::new(r, Tuple::new(vec![s("a"), s("c")]));
        d.remove(r, &atom.tuple);
        let touched = violations_touching(&d, &ics, &Delta::deletion(atom), SatMode::NullAware);
        assert_eq!(touched.len(), 1);
        assert_eq!(touched, violations_naive(&d, &ics, SatMode::NullAware));
    }

    #[test]
    fn remove_of_redundant_witness_is_silent() {
        let mut d = build(&[
            ("P", vec![s("a"), s("b")]),
            ("R", vec![s("a"), s("c")]),
            ("R", vec![s("a"), s("d")]),
        ]);
        let ics = ric();
        let r = d.schema().rel_id("R").unwrap();
        let atom = DatabaseAtom::new(r, Tuple::new(vec![s("a"), s("c")]));
        d.remove(r, &atom.tuple);
        assert!(
            violations_touching(&d, &ics, &Delta::deletion(atom), SatMode::NullAware).is_empty()
        );
    }

    #[test]
    fn nnc_insertion_caught_and_escape_respected() {
        let sc = schema();
        let nnc = Nnc::new(&sc, "nn", "P", 0).unwrap();
        let ics = IcSet::new([Constraint::from(nnc)]);
        let mut d = build(&[]);
        let p = sc.rel_id("P").unwrap();
        let bad = DatabaseAtom::new(p, Tuple::new(vec![null(), s("b")]));
        d.insert(p, bad.tuple.clone()).unwrap();
        let touched =
            violations_touching(&d, &ics, &Delta::insertion(bad.clone()), SatMode::NullAware);
        assert_eq!(touched.len(), 1);
        assert!(violation_active(&d, &ics, &touched[0], SatMode::NullAware));
        d.remove(p, &bad.tuple);
        assert!(!violation_active(&d, &ics, &touched[0], SatMode::NullAware));
    }

    #[test]
    fn violation_active_tracks_witness_arrival() {
        let mut d = build(&[("P", vec![s("a"), s("b")])]);
        let ics = ric();
        let viols = violations_naive(&d, &ics, SatMode::NullAware);
        assert_eq!(viols.len(), 1);
        assert!(violation_active(&d, &ics, &viols[0], SatMode::NullAware));
        d.insert_named("R", [s("a"), null()]).unwrap();
        assert!(!violation_active(&d, &ics, &viols[0], SatMode::NullAware));
    }
}
