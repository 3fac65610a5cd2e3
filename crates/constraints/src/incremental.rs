//! Index-driven and *incremental* violation finding.
//!
//! The naive evaluator in [`crate::satisfaction`] joins constraint bodies
//! by nested full-relation scans and re-checks the whole instance after
//! every change. This module replaces both hot loops:
//!
//! * **Index-driven joins.** Body matching and head-witness checks run
//!   the workspace's one join, [`cqa_relational::Join`], over the
//!   instance: at every join depth, the
//!   candidate set for an atom is the bucket of its determined columns
//!   (constants and already-bound join variables), listed by
//!   [`Candidates`]. One determined column probes its `ColumnIndex`,
//!   several probe the *composite* index of the exact column set, so a
//!   multi-attribute FD/key/IC probe is a single packed-key lookup with no
//!   residual filtering on determined positions; an atom whose columns are
//!   all determined is one membership test and builds no index. The
//!   checker builds each index on first use ([`IndexBuild::OnFirstUse`]);
//!   the instance keeps it. Buckets are `BTreeSet<Tuple>`, so swapping a
//!   scan for a probe never changes match enumeration order — the indexed
//!   full check ([`crate::violations`]) joins in body order and reports
//!   exactly the naive order, which the property suite pins down. With
//!   interned values ([`cqa_relational::symbol`]), every probe hashes and
//!   compares integers, independent of string content.
//! * **Seeded (delta) matching.** [`violations_touching`] re-checks only
//!   the ground instantiations that can involve a changed atom: inserted
//!   tuples are pinned into each compatible body position (bound into the
//!   join's seed bindings, their atom skipped), removed tuples are
//!   inverted through the head atoms they may have witnessed (the seed
//!   bindings alone). After the seed, the remaining body atoms are joined
//!   *most-selective-first* ([`Order::MostBound`]): repeatedly pick the
//!   atom with the most determined columns (tie-break: smaller relation,
//!   then body order). This is the paper's tractability observation made
//!   operational — repairs differ from `D` only on the Proposition-1
//!   universe, so search steps touch few atoms and re-checking cost should
//!   scale with the change, not the instance.
//!
//! Completeness of the delta rule (single- or multi-atom [`Delta`], against
//! the *post-change* instance): a ground body assignment `σ` violated in
//! `D′` but not in `D` either gained a body atom (some inserted atom occurs
//! in `σ`'s body match — found by pinning that atom) or lost its last head
//! witness (every witness was removed; any one of them seeds the inverted
//! head match that rediscovers `σ`). IsNull escapes and builtin disjuncts
//! depend only on `σ` itself and never flip. NOT NULL violations can only
//! be created by insertions, which are checked directly.

use crate::ast::{Constraint, Ic, IcAtom, IcSet, Term};
use crate::satisfaction::{phi_escape, SatMode, Violation, ViolationKind};
use cqa_relational::join::bind;
use cqa_relational::{
    Candidates, DatabaseAtom, Delta, IndexBuild, Instance, Join, Order, Tuple, Value,
};
use std::ops::ControlFlow;

// The incremental-checking state must be cheap to fork and safe to move
// across threads: callers share a `Database`'s `Instance` and `IcSet`
// between threads, as `tests/cancellation.rs` does. [`Candidates`] holds
// `Arc` index snapshots (fork = refcount bump) and interned `Copy`
// values, so both properties are structural; these witnesses turn any
// accidental `!Send` (an `Rc`, a raw pointer) into a compile error.
const _: () = {
    use cqa_relational::testing::{assert_send, assert_sync};
    assert_send::<Candidates<'static>>();
    assert_sync::<Candidates<'static>>();
    assert_send::<Violation>();
    assert_sync::<Violation>();
    assert_send::<IcSet>();
    assert_sync::<IcSet>();
};

/// The join of constraint atoms over `instance`, null as an ordinary
/// constant (Definition 4 evaluates ψ^N that way, Example 12), every index
/// built on first use. Shared with the alternative semantics of
/// [`crate::alt`].
pub(crate) fn body_join<'a>(
    instance: &'a Instance,
    atoms: &'a [IcAtom],
    order: Order,
) -> Join<'a, Instance, IcAtom> {
    Join {
        source: instance,
        atoms,
        order,
        bound_null_matches: true,
        root: IndexBuild::OnFirstUse,
    }
}

/// Is the ground constraint satisfied under a full body assignment?
/// (IsNull escape ∨ ϕ ∨ some head witness, all index-probed.)
///
/// A head witness is a one-atom join from the body's bindings: the probe
/// is on the determined columns, and each existential variable binds to
/// the tuple's value, so it must repeat consistently within the atom.
/// Under `NullAware` a witness need only agree on the relevant positions
/// (`Q^{A(ψ)}` of formula (4)); every other position holds a variable
/// that occurs once in ψ and matches anything, so one join serves both
/// modes.
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
    if ic.head().is_empty() {
        return false;
    }
    let mut bindings = bindings.to_vec();
    ic.head().iter().any(|atom| {
        let witness = body_join(instance, std::slice::from_ref(atom), Order::Body);
        let found = witness.run(&mut bindings, None, |_, _| ControlFlow::Break(()));
        found.is_break()
    })
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
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    join_violations(instance, ic, mode, Order::Body, &mut bindings, None, f)
}

/// Join `ic`'s body from `bindings`, leaving out the pinned body position
/// (whose tuple the caller bound), and report every assignment that
/// violates `ic`, with its ground body atoms in declaration order.
fn join_violations<B>(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    order: Order,
    bindings: &mut [Option<Value>],
    pin: Option<(usize, &Tuple)>,
    f: &mut impl FnMut(&[Option<Value>], Vec<DatabaseAtom>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let join = body_join(instance, ic.body(), order);
    join.run(bindings, pin.map(|(k, _)| k), |bindings, matched| {
        if ground_satisfied_indexed(instance, ic, mode, bindings) {
            return ControlFlow::Continue(());
        }
        let ground: Vec<DatabaseAtom> = ic
            .body()
            .iter()
            .enumerate()
            .map(|(k, atom)| {
                let tuple = matched.row(k).or(pin.map(|(_, t)| t));
                DatabaseAtom::new(atom.rel, tuple.expect("full assignment").clone())
            })
            .collect();
        f(bindings, ground)
    })
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
                let mut report = |bindings: &[Option<Value>], body_atoms| {
                    let kind = ViolationKind::Tgd {
                        bindings: bindings.to_vec(),
                        body_atoms,
                    };
                    push(
                        Violation {
                            constraint_index: index,
                            kind,
                        },
                        &mut out,
                    );
                    ControlFlow::<()>::Continue(())
                };
                // (a) an inserted atom joins into a body position: pin it
                // there and join the other atoms most-selective-first.
                for a in &delta.inserted {
                    if !instance.contains(a) {
                        continue;
                    }
                    for (k, batom) in ic.body().iter().enumerate() {
                        if batom.rel != a.rel {
                            continue;
                        }
                        let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
                        if bind(batom, a.tuple.values(), true, &mut bindings) {
                            let (order, pin) = (Order::MostBound, Some((k, &a.tuple)));
                            let _ = join_violations(
                                instance,
                                ic,
                                mode,
                                order,
                                &mut bindings,
                                pin,
                                &mut report,
                            );
                        }
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
                        let Some(mut bindings) = head_seed_bindings(ic, hatom, &a.tuple, mode)
                        else {
                            continue;
                        };
                        let order = Order::MostBound;
                        let _ = join_violations(
                            instance,
                            ic,
                            mode,
                            order,
                            &mut bindings,
                            None,
                            &mut report,
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
    fn a_fully_bound_body_atom_builds_no_index() {
        let sc = Schema::builder()
            .relation("R", ["x", "y"])
            .relation("S", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let denial = Ic::builder(&sc, "denial")
            .body_atom("R", [v("x"), v("y")])
            .body_atom("S", [v("x"), v("y")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(denial)]);
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("a"), s("b")]).unwrap();
        d.insert_named("S", [s("a"), s("b")]).unwrap();
        assert_eq!(crate::violations(&d, &ics, SatMode::NullAware).len(), 1);
        // S(x, y) is listed with both columns bound: one membership test.
        let s_rel = sc.rel_id("S").unwrap();
        assert!(d.indexed_columns(s_rel).is_empty());
        assert!(d.indexed_column_sets(s_rel).is_empty());
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
