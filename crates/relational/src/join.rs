//! [`Join`], the one backtracking join of the workspace. Checking
//! `D |=_N ψ` (Definition 4), answering a query in a repair (Definition 8)
//! and grounding Π(D, IC) over its possibly-true atoms (Definition 9) each
//! match a conjunctive body against a set of rows; all three run it.
//!
//! A body is a list of atoms ([`BodyAtom`]), each a source plus
//! variable/constant terms ([`Slot`]). The join binds one atom at a time,
//! backtracks, and hands every full binding with the rows it matched
//! ([`Matched`]) to a callback. Its inputs carry what the callers differ in:
//!
//! * **Source.** An [`Instance`] lists an atom's candidates through
//!   [`Candidates`]; the grounder's possibly-true rows, one ordered set per
//!   predicate, list the B-tree range that starts at the atom's bound
//!   leading columns. Either way candidates come in scan order, and an atom
//!   whose columns are all bound is one membership test, never a probe.
//! * **Seed.** Bindings made before the join starts, plus one atom to
//!   skip: a pin [`bind`]s its row into the bindings and skips its atom.
//! * **Order.** Body order, or most-bound-first ([`Order`]).
//! * **Nulls.** A bound `null` matches `null` unless
//!   [`Join::bound_null_matches`] is off: SQL's three-valued reading, which
//!   Franconi & Tessaris reduce to classical joins plus the one rule "a
//!   bound null matches nothing". Unbound variables bind to `null` either
//!   way, so nulls can still be returned.
//! * **Root index.** Over an instance, the first atom listed probes under
//!   [`Join::root`]; later atoms build their index on first use (see
//!   [`crate::index`] for why).

use crate::index::{Candidates, IndexBuild};
use crate::instance::Instance;
use crate::schema::RelId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::{Bound, ControlFlow};

/// A body term as the join reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A variable: its index into the bindings.
    Var(usize),
    /// A constant.
    Const(Value),
}

/// One atom of a conjunctive body.
pub trait BodyAtom {
    /// The rows the atom ranges over: a relation's [`RelId::index`] in an
    /// [`Instance`], a predicate index in possibly-true rows.
    fn source(&self) -> usize;
    /// Number of terms.
    fn arity(&self) -> usize;
    /// The term at position `pos`.
    fn term(&self, pos: usize) -> Slot;
}

/// Where a body's rows come from.
pub trait Source {
    /// One row; its values are read through `Borrow<[Value]>`.
    type Row: Borrow<[Value]>;
    /// Number of rows of `source`.
    fn size(&self, source: usize) -> usize;
    /// The row of `source` equal to `values`, if there is one.
    fn get(&self, source: usize, values: &[Value]) -> Option<&Self::Row>;
    /// Hand `f`, in row order, the rows of `source` that may hold
    /// `values[i]` at column `cols[i]` (`cols` ascending). A superset is
    /// allowed: the join matches every position of every row it is handed.
    fn each<B>(
        &self,
        source: usize,
        cols: &[usize],
        values: &[Value],
        build: IndexBuild,
        f: impl FnMut(&Self::Row) -> ControlFlow<B>,
    ) -> ControlFlow<B>;
}

impl Source for Instance {
    type Row = Tuple;

    fn size(&self, source: usize) -> usize {
        self.relation(RelId(source as u32)).len()
    }

    fn get(&self, source: usize, values: &[Value]) -> Option<&Tuple> {
        self.relation(RelId(source as u32)).get(values)
    }

    fn each<B>(
        &self,
        source: usize,
        cols: &[usize],
        values: &[Value],
        build: IndexBuild,
        f: impl FnMut(&Tuple) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        Candidates::new(self, RelId(source as u32), cols, values, build)
            .iter()
            .try_for_each(f)
    }
}

/// The grounder's possibly-true rows, one ordered set per predicate.
impl Source for [BTreeSet<Vec<Value>>] {
    type Row = Vec<Value>;

    fn size(&self, source: usize) -> usize {
        self[source].len()
    }

    fn get(&self, source: usize, values: &[Value]) -> Option<&Vec<Value>> {
        self[source].get(values)
    }

    /// The bound leading columns fix a prefix of every matching row. Rows
    /// are ordered by their values, so the candidates are the contiguous
    /// range starting at that prefix, in the order a full scan would meet
    /// them; bound columns after a gap are left to the join.
    fn each<B>(
        &self,
        source: usize,
        cols: &[usize],
        values: &[Value],
        _build: IndexBuild,
        f: impl FnMut(&Vec<Value>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let lead = cols
            .iter()
            .enumerate()
            .take_while(|&(i, &c)| i == c)
            .count();
        let prefix = &values[..lead];
        self[source]
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|row| row.starts_with(prefix))
            .try_for_each(f)
    }
}

/// The order in which a [`Join`] lists its atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Body order: bindings come out in the order nested scans would find
    /// them.
    Body,
    /// The atom with the most bound columns (constants and bound
    /// variables) next; ties go to the smaller source, then to the earlier
    /// body position. The checker's rule for seeded matching.
    MostBound,
}

/// One conjunctive body to match against a source; see the module docs.
pub struct Join<'a, S: ?Sized, A> {
    /// Where the rows come from.
    pub source: &'a S,
    /// The body.
    pub atoms: &'a [A],
    /// Which atom is listed next.
    pub order: Order,
    /// May a bound `null` match a `null`? Off only under SQL's
    /// three-valued reading.
    pub bound_null_matches: bool,
    /// Whether the first atom listed may build its index; later atoms
    /// always may. Possibly-true rows have no index to build.
    pub root: IndexBuild,
}

/// The rows a full binding matched, by body position.
pub struct Matched<'r, R>(Option<&'r Link<'r, R>>);

/// One matched row, linked to the rows matched before it: each level of
/// the join keeps its link on its own stack frame.
struct Link<'r, R> {
    atom: usize,
    row: &'r R,
    outer: Matched<'r, R>,
}

impl<R> Clone for Matched<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Matched<'_, R> {}

impl<'r, R> Matched<'r, R> {
    /// The row body atom `atom` matched; `None` for the skipped atom.
    pub fn row(self, atom: usize) -> Option<&'r R> {
        let mut link = self.0;
        while let Some(l) = link {
            if l.atom == atom {
                return Some(l.row);
            }
            link = l.outer.0;
        }
        None
    }
}

impl<S: Source + ?Sized, A: BodyAtom> Join<'_, S, A> {
    /// Match the body, starting from `bindings` and leaving out atom
    /// `skip`, and call `f` on every full binding with the rows it
    /// matched. A `Break` from `f` stops the join and is returned.
    /// `bindings` is as it was when `run` returns.
    pub fn run<B>(
        &self,
        bindings: &mut [Option<Value>],
        skip: Option<usize>,
        mut f: impl FnMut(&[Option<Value>], Matched<'_, S::Row>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // Each level takes its atom's arity off the front of these and
        // hands the rest down, so the whole join needs them once.
        let width = self.atoms.iter().map(BodyAtom::arity).sum();
        let (mut cols, mut values) = (vec![0; width], vec![Value::Null; width]);
        self.extend(
            bindings,
            skip,
            Matched(None),
            &mut cols,
            &mut values,
            &mut f,
        )
    }

    fn extend<B, F>(
        &self,
        bindings: &mut [Option<Value>],
        skip: Option<usize>,
        matched: Matched<'_, S::Row>,
        cols: &mut [usize],
        values: &mut [Value],
        f: &mut F,
    ) -> ControlFlow<B>
    where
        F: FnMut(&[Option<Value>], Matched<'_, S::Row>) -> ControlFlow<B>,
    {
        let Some(next) = self.next_atom(bindings, skip, matched) else {
            return f(bindings, matched);
        };
        let atom = &self.atoms[next];
        let arity = atom.arity();
        let (cols, deeper_cols) = cols.split_at_mut(arity);
        let (values, deeper_values) = values.split_at_mut(arity);
        // The bound columns and their values fill `cols` and `values` from
        // the front; the variables a candidate row binds fill `cols` from
        // the back, so undoing a match unbinds exactly those.
        let (mut bound, mut open) = (0, arity);
        for pos in 0..arity {
            let value = match atom.term(pos) {
                Slot::Const(c) => c,
                Slot::Var(v) => match bindings[v] {
                    Some(b) => b,
                    None => {
                        open -= 1;
                        cols[open] = v;
                        continue;
                    }
                },
            };
            if value.is_null() && !self.bound_null_matches {
                return ControlFlow::Continue(());
            }
            cols[bound] = pos;
            values[bound] = value;
            bound += 1;
        }
        let (cols, opened) = cols.split_at(bound);
        let values = &values[..bound];
        let build = matched.0.map_or(self.root, |_| IndexBuild::OnFirstUse);
        let visit = |row: &S::Row| {
            let res = if bind(atom, row.borrow(), self.bound_null_matches, bindings) {
                let link = Link {
                    atom: next,
                    row,
                    outer: matched,
                };
                let matched = Matched(Some(&link));
                self.extend(bindings, skip, matched, deeper_cols, deeper_values, f)
            } else {
                ControlFlow::Continue(())
            };
            for &v in opened {
                bindings[v] = None;
            }
            res
        };
        if bound < arity {
            self.source.each(atom.source(), cols, values, build, visit)
        } else {
            let row = self.source.get(atom.source(), values);
            row.map_or(ControlFlow::Continue(()), visit)
        }
    }

    /// The atom to list next, or `None` once every atom is matched.
    fn next_atom(
        &self,
        bindings: &[Option<Value>],
        skip: Option<usize>,
        matched: Matched<'_, S::Row>,
    ) -> Option<usize> {
        match self.order {
            // Body order lists atoms by position: the next one follows the
            // last matched.
            Order::Body => {
                let from = matched.0.map_or(0, |l| l.atom + 1);
                (from..self.atoms.len()).find(|&i| Some(i) != skip)
            }
            Order::MostBound => (0..self.atoms.len())
                .filter(|&i| Some(i) != skip && matched.row(i).is_none())
                .min_by_key(|&i| {
                    let atom = &self.atoms[i];
                    let bound = (0..atom.arity())
                        .filter(|&pos| match atom.term(pos) {
                            Slot::Const(_) => true,
                            Slot::Var(v) => bindings[v].is_some(),
                        })
                        .count();
                    (Reverse(bound), self.source.size(atom.source()), i)
                }),
        }
    }
}

/// Match `row` against `atom`, binding the variables `bindings` leaves
/// open; `false` if some position disagrees. A bound value — a constant,
/// or a variable bound before or earlier in this atom — matches an equal
/// value, and a bound `null` only if `bound_null_matches`. On `false`
/// some variables may be bound: a caller seeding a join with a pinned row
/// drops the bindings.
pub fn bind(
    atom: &impl BodyAtom,
    row: &[Value],
    bound_null_matches: bool,
    bindings: &mut [Option<Value>],
) -> bool {
    (0..atom.arity()).all(|pos| {
        let value = row[pos];
        let bound = match atom.term(pos) {
            Slot::Const(c) => c,
            Slot::Var(v) => match bindings[v] {
                Some(b) => b,
                None => {
                    bindings[v] = Some(value);
                    return true;
                }
            },
        };
        bound == value && (bound_null_matches || !value.is_null())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{random_instance, DomainSpec, XorShift};
    use crate::{null, s, Schema};
    use std::sync::Arc;

    struct TestAtom {
        rel: usize,
        terms: Vec<Slot>,
    }

    impl BodyAtom for TestAtom {
        fn source(&self) -> usize {
            self.rel
        }
        fn arity(&self) -> usize {
            self.terms.len()
        }
        fn term(&self, pos: usize) -> Slot {
            self.terms[pos]
        }
    }

    const VARS: usize = 4;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("R", ["a", "b"])
            .relation("S", ["a", "b"])
            .relation("T", ["a", "b", "c"])
            .finish()
            .unwrap()
            .into_shared()
    }

    /// A random value of the instances' domain, `null` included.
    fn value(rng: &mut XorShift) -> Value {
        match rng.below(3) {
            0 => null(),
            k => s(&format!("c{}", k - 1)),
        }
    }

    /// 1–3 atoms whose terms repeat variables and mix in constants, so
    /// some atoms end up with every column bound.
    fn random_body(sc: &Schema, rng: &mut XorShift) -> Vec<TestAtom> {
        (0..1 + rng.below(3))
            .map(|_| {
                let rel = rng.below(sc.len());
                let arity = sc.relation(RelId(rel as u32)).arity();
                let terms = (0..arity)
                    .map(|_| match rng.below(4) {
                        0 => Slot::Const(value(rng)),
                        _ => Slot::Var(rng.below(VARS)),
                    })
                    .collect();
                TestAtom { rel, terms }
            })
            .collect()
    }

    type Found = (Vec<Option<Value>>, Vec<Option<Vec<Value>>>);

    /// The oracle: nested scans in body order, every position compared.
    fn nested_loop(
        d: &Instance,
        atoms: &[TestAtom],
        skip: Option<usize>,
        null_matches: bool,
        bindings: &mut Vec<Option<Value>>,
        rows: &mut Vec<Option<Vec<Value>>>,
        out: &mut Vec<Found>,
    ) {
        let depth = rows.len();
        if depth == atoms.len() {
            out.push((bindings.clone(), rows.clone()));
            return;
        }
        if skip == Some(depth) {
            rows.push(None);
            nested_loop(d, atoms, skip, null_matches, bindings, rows, out);
            rows.pop();
            return;
        }
        let atom = &atoms[depth];
        for t in d.relation(RelId(atom.rel as u32)) {
            let saved = bindings.clone();
            let ok = atom.terms.iter().zip(t.values()).all(|(term, &val)| {
                let want = match *term {
                    Slot::Const(c) => c,
                    Slot::Var(v) => match bindings[v] {
                        Some(b) => b,
                        None => {
                            bindings[v] = Some(val);
                            return true;
                        }
                    },
                };
                want == val && (null_matches || !val.is_null())
            });
            if ok {
                rows.push(Some(t.values().to_vec()));
                nested_loop(d, atoms, skip, null_matches, bindings, rows, out);
                rows.pop();
            }
            *bindings = saved;
        }
    }

    fn run_join<S: Source + ?Sized>(
        join: &Join<'_, S, TestAtom>,
        seed: &[Option<Value>],
        skip: Option<usize>,
    ) -> Vec<Found> {
        let mut bindings = seed.to_vec();
        let mut out = Vec::new();
        let _ = join.run(&mut bindings, skip, |b, matched| {
            let rows = (0..join.atoms.len())
                .map(|i| matched.row(i).map(|r| r.borrow().to_vec()))
                .collect();
            out.push((b.to_vec(), rows));
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(bindings, seed, "run restores the bindings");
        out
    }

    #[test]
    fn join_equals_the_nested_loop() {
        let sc = schema();
        let domain = DomainSpec {
            constants: 2,
            null_percent: 25,
        };
        let mut rng = XorShift::new(0x5eed_1017);
        let mut nonempty = 0;
        for round in 0..300u64 {
            let atoms = random_body(&sc, &mut rng);
            let d = random_instance(&sc, 7000 + round, 1 + rng.below(6), &domain);
            let pt: Vec<BTreeSet<Vec<Value>>> = sc
                .rel_ids()
                .map(|r| d.relation(r).iter().map(|t| t.values().to_vec()).collect())
                .collect();
            let seed: Vec<Option<Value>> = (0..VARS)
                .map(|_| rng.chance(1, 4).then(|| value(&mut rng)))
                .collect();
            let skip = rng.chance(1, 3).then(|| rng.below(atoms.len()));
            for null_matches in [true, false] {
                let mut want = Vec::new();
                nested_loop(
                    &d,
                    &atoms,
                    skip,
                    null_matches,
                    &mut seed.clone(),
                    &mut Vec::new(),
                    &mut want,
                );
                let mut sorted_want = want.clone();
                sorted_want.sort();
                let what = format!("round {round}, null_matches {null_matches}, skip {skip:?}");
                for order in [Order::Body, Order::MostBound] {
                    for root in [IndexBuild::RegisteredOnly, IndexBuild::OnFirstUse] {
                        // A fresh copy probes nothing at the root under
                        // `RegisteredOnly`; the second pass probes the
                        // indexes the first one built.
                        let fresh = d.clone();
                        for pass in 0..2 {
                            let join = Join {
                                source: &fresh,
                                atoms: &atoms,
                                order,
                                bound_null_matches: null_matches,
                                root,
                            };
                            let mut got = run_join(&join, &seed, skip);
                            let rows = Join {
                                source: pt.as_slice(),
                                atoms: &atoms,
                                order,
                                bound_null_matches: null_matches,
                                root,
                            };
                            let mut got_rows = run_join(&rows, &seed, skip);
                            let what = format!("{what}, {order:?}, {root:?}, pass {pass}");
                            if order == Order::Body {
                                assert_eq!(got, want, "instance: {what}");
                                assert_eq!(got_rows, want, "rows: {what}");
                            } else {
                                got.sort();
                                got_rows.sort();
                                assert_eq!(got, sorted_want, "instance: {what}");
                                assert_eq!(got_rows, sorted_want, "rows: {what}");
                            }
                        }
                    }
                }
                nonempty += usize::from(!want.is_empty());
            }
        }
        assert!(nonempty >= 100, "only {nonempty} draws had a match");
    }
}
