//! Symmetric differences Δ(D, D′) between instances over one schema.

use crate::atom::DatabaseAtom;
use crate::error::RelationalError;
use crate::instance::Instance;
use crate::schema::RelId;
use crate::tuple::Tuple;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// The symmetric difference `Δ(D, D′) = (D ∖ D′) ∪ (D′ ∖ D)` split by
/// direction.
///
/// The paper's repair machinery (Definitions 6–7) works on Δ as a plain set
/// of atoms; [`Delta::atoms`] provides that view, while `removed`/`inserted`
/// keep the direction for reporting and for applying repairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Delta {
    /// Atoms of `D` missing from `D′` (deletions).
    pub removed: BTreeSet<DatabaseAtom>,
    /// Atoms of `D′` missing from `D` (insertions).
    pub inserted: BTreeSet<DatabaseAtom>,
}

impl Delta {
    /// The atom-level delta of a single insertion (the repair engine's
    /// `t_a` decision).
    pub fn insertion(atom: DatabaseAtom) -> Delta {
        Delta {
            removed: BTreeSet::new(),
            inserted: BTreeSet::from([atom]),
        }
    }

    /// The atom-level delta of a single deletion (an `f_a` decision).
    pub fn deletion(atom: DatabaseAtom) -> Delta {
        Delta {
            removed: BTreeSet::from([atom]),
            inserted: BTreeSet::new(),
        }
    }

    /// All atoms of the symmetric difference, deletions first.
    pub fn atoms(&self) -> impl Iterator<Item = &DatabaseAtom> {
        self.removed.iter().chain(self.inserted.iter())
    }

    /// Number of atoms in the symmetric difference.
    pub fn len(&self) -> usize {
        self.removed.len() + self.inserted.len()
    }

    /// `true` iff the instances were equal.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.inserted.is_empty()
    }

    /// Membership in the symmetric difference.
    pub fn contains(&self, atom: &DatabaseAtom) -> bool {
        self.removed.contains(atom) || self.inserted.contains(atom)
    }

    /// Is the *set* `Δ₁ ⊆ Δ₂`? (Direction-sensitive: a deletion only
    /// matches a deletion, an insertion only an insertion — Δs against the
    /// same original `D` agree on direction for any shared atom.)
    pub fn subset_of(&self, other: &Delta) -> bool {
        self.removed.is_subset(&other.removed) && self.inserted.is_subset(&other.inserted)
    }
}

/// The pinned order of two repairs of `base` given as their Δs: the order
/// of the atom lists of `base + a` and `base + b` ([`Instance::atoms`]
/// collected into a `Vec`), computed without materialising either. Both
/// Δs must be over `base`: `removed ⊆ base` and `inserted` disjoint from
/// it. The result is `Equal` exactly when `a == b`.
///
/// The two atom lists agree up to the smallest atom `x` of `a △ b`, which
/// only one of the repairs holds. Its list reads `x` where the other's
/// reads the other's next atom, which is larger, so it comes first —
/// unless the other repair has no atom above `x`, so that its list is a
/// prefix of the holder's and comes first instead. The other repair's
/// largest atom settles which.
pub fn repair_order(base: &Instance, a: &Delta, b: &Delta) -> Ordering {
    let (mut xs, mut ys) = (ascending(a).peekable(), ascending(b).peekable());
    // The smallest atom of a △ b, and whether repair `a` holds it.
    let (x, in_a) = loop {
        match (xs.peek(), ys.peek()) {
            (None, None) => return Ordering::Equal,
            (Some(x), Some(y)) if x == y => {
                xs.next();
                ys.next();
            }
            // Only in Δa: repair a holds it iff a inserts it.
            (Some(&x), Some(&y)) if x < y => break (x, a.inserted.contains(x)),
            (Some(&x), None) => break (x, a.inserted.contains(x)),
            // Only in Δb: repair a holds it iff b deletes it.
            (_, Some(&y)) => break (y, b.removed.contains(y)),
        }
    };
    let other = if in_a { b } else { a };
    let holder_first = match last_atom(base, other) {
        Some(last) if last > (x.rel, &x.tuple) => Ordering::Less,
        _ => Ordering::Greater,
    };
    if in_a {
        holder_first
    } else {
        holder_first.reverse()
    }
}

/// The atoms of `delta` in ascending order: `removed` and `inserted`
/// merged.
fn ascending(delta: &Delta) -> impl Iterator<Item = &DatabaseAtom> {
    let (mut removed, mut inserted) = (
        delta.removed.iter().peekable(),
        delta.inserted.iter().peekable(),
    );
    std::iter::from_fn(move || match (removed.peek(), inserted.peek()) {
        (Some(r), Some(i)) if i < r => inserted.next(),
        (Some(_), _) => removed.next(),
        (None, _) => inserted.next(),
    })
}

/// The largest atom of `base + delta`: the larger of `delta`'s largest
/// insertion and `base`'s largest atom that `delta` does not delete.
fn last_atom<'a>(base: &'a Instance, delta: &'a Delta) -> Option<(RelId, &'a Tuple)> {
    let mut removed = delta.removed.iter().rev().peekable();
    let kept = (0..base.schema().len())
        .rev()
        .map(|i| RelId(i as u32))
        .flat_map(|rel| base.relation(rel).iter().rev().map(move |t| (rel, t)))
        .find(|&(rel, t)| {
            // Both walks descend, so the deleted atoms come up in order.
            while removed.next_if(|r| (r.rel, &r.tuple) > (rel, t)).is_some() {}
            removed.next_if(|r| r.rel == rel && &r.tuple == t).is_none()
        });
    let inserted = delta.inserted.last().map(|a| (a.rel, &a.tuple));
    kept.max(inserted)
}

/// A *directed* instance drift `base → target`: the atoms the target
/// **added** and the atoms it **removed**, as a first-class value.
///
/// Where [`Delta`] is the paper's symmetric difference (repair machinery,
/// Definitions 6–7), `InstanceDelta` is the *maintenance* view of the
/// same information: a caching layer that holds a derived structure for
/// `base` (e.g. a grounding of Π(D, IC)) replays `removed` then `added`
/// onto it to evolve the structure to `target` incrementally. The
/// `cqa-core` grounding cache is the canonical consumer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceDelta {
    /// Atoms of `target` missing from `base`.
    pub added: BTreeSet<DatabaseAtom>,
    /// Atoms of `base` missing from `target`.
    pub removed: BTreeSet<DatabaseAtom>,
}

impl InstanceDelta {
    /// The drift from `base` to `target`.
    ///
    /// Errors if the two instances do not share a schema.
    pub fn between(base: &Instance, target: &Instance) -> Result<InstanceDelta, RelationalError> {
        let d = delta(base, target)?;
        Ok(InstanceDelta {
            added: d.inserted,
            removed: d.removed,
        })
    }

    /// Total number of drifted atoms.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// `true` iff the instances were content-equal.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Does the drift exceed `num/den` of `of`'s atom count? The escape
    /// hatch a maintenance consumer uses to fall back to a rebuild when
    /// replaying the delta would cost more than starting over.
    ///
    /// Edge cases are pinned by direct tests: an empty drift never
    /// exceeds anything; a non-empty drift against an *empty* target
    /// exceeds every finite fraction (there is nothing worth replaying
    /// onto — the old `max(1)` clamp under-triggered here for `num > 1`);
    /// `den == 0` reads as an infinite threshold, never exceeded, rather
    /// than a division hazard; and the products are widened to `u128` so
    /// extreme fraction arguments cannot overflow.
    pub fn exceeds_fraction_of(&self, of: &Instance, num: usize, den: usize) -> bool {
        if self.is_empty() || den == 0 {
            return false;
        }
        if of.is_empty() {
            return true;
        }
        self.len() as u128 * den as u128 > of.len() as u128 * num as u128
    }
}

/// Compute `Δ(d, d_prime)`.
///
/// Errors if the two instances do not share a schema.
pub fn delta(d: &Instance, d_prime: &Instance) -> Result<Delta, RelationalError> {
    if !d.same_schema(d_prime) {
        return Err(RelationalError::SchemaMismatch);
    }
    let mut out = Delta::default();
    for atom in d.atoms() {
        if !d_prime.contains(&atom) {
            out.removed.insert(atom);
        }
    }
    for atom in d_prime.atoms() {
        if !d.contains(&atom) {
            out.inserted.insert(atom);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::XorShift;
    use crate::{i, s, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("P", ["a"])
            .relation("Q", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared()
    }

    #[test]
    fn delta_of_identical_instances_is_empty() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [i(1)]).unwrap();
        let dl = delta(&d, &d.clone()).unwrap();
        assert!(dl.is_empty());
        assert_eq!(dl.len(), 0);
    }

    #[test]
    fn delta_splits_directions() {
        let sc = schema();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [i(1)]).unwrap();
        d.insert_named("Q", [s("a"), s("b")]).unwrap();
        let mut d2 = Instance::empty(sc);
        d2.insert_named("P", [i(1)]).unwrap();
        d2.insert_named("Q", [s("a"), s("c")]).unwrap();
        let dl = delta(&d, &d2).unwrap();
        assert_eq!(dl.removed.len(), 1); // Q(a,b)
        assert_eq!(dl.inserted.len(), 1); // Q(a,c)
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.atoms().count(), 2);
    }

    #[test]
    fn delta_is_symmetric_as_a_set() {
        let sc = schema();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [i(1)]).unwrap();
        let d2 = Instance::empty(sc);
        let ab = delta(&d, &d2).unwrap();
        let ba = delta(&d2, &d).unwrap();
        let set_ab: BTreeSet<_> = ab.atoms().cloned().collect();
        let set_ba: BTreeSet<_> = ba.atoms().cloned().collect();
        assert_eq!(set_ab, set_ba);
        assert_eq!(ab.removed, ba.inserted);
    }

    #[test]
    fn subset_respects_direction() {
        let sc = schema();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [i(1)]).unwrap();
        let empty = Instance::empty(sc.clone());
        let mut with_two = Instance::empty(sc);
        with_two.insert_named("P", [i(2)]).unwrap();

        let del = delta(&d, &empty).unwrap(); // remove P(1)
        let swap = delta(&d, &with_two).unwrap(); // remove P(1), insert P(2)
        assert!(del.subset_of(&swap));
        assert!(!swap.subset_of(&del));
    }

    #[test]
    fn instance_delta_directs_the_drift() {
        let sc = schema();
        let mut base = Instance::empty(sc.clone());
        base.insert_named("P", [i(1)]).unwrap();
        base.insert_named("Q", [s("a"), s("b")]).unwrap();
        let mut target = Instance::empty(sc);
        target.insert_named("P", [i(1)]).unwrap();
        target.insert_named("Q", [s("a"), s("c")]).unwrap();
        let drift = InstanceDelta::between(&base, &target).unwrap();
        assert_eq!(drift.added.len(), 1); // Q(a,c)
        assert_eq!(drift.removed.len(), 1); // Q(a,b)
        assert_eq!(drift.len(), 2);
        assert!(!drift.is_empty());
        assert!(InstanceDelta::between(&base, &base.clone())
            .unwrap()
            .is_empty());
        // 2 drifted atoms over a 2-atom target: exceeds 1/2, not 2/1.
        assert!(drift.exceeds_fraction_of(&target, 1, 2));
        assert!(!drift.exceeds_fraction_of(&target, 2, 1));
    }

    #[test]
    fn instance_delta_fraction_handles_empty_target() {
        let sc = schema();
        let mut base = Instance::empty(sc.clone());
        base.insert_named("P", [i(1)]).unwrap();
        let target = Instance::empty(sc);
        let drift = InstanceDelta::between(&base, &target).unwrap();
        assert_eq!(drift.removed.len(), 1);
        // Empty target: any non-empty drift exceeds every fraction.
        assert!(drift.exceeds_fraction_of(&target, 1, 2));
        // … including generous ones, where the old `max(1)` clamp
        // under-triggered (1 * den > 1 * 10 was false).
        assert!(drift.exceeds_fraction_of(&target, 10, 1));
    }

    #[test]
    fn instance_delta_fraction_edge_cases() {
        let sc = schema();
        let empty = Instance::empty(sc.clone());
        let mut small = Instance::empty(sc.clone());
        small.insert_named("P", [i(100)]).unwrap(); // disjoint from `big`
        let mut big = Instance::empty(sc);
        for k in 0..6 {
            big.insert_named("P", [i(k)]).unwrap();
        }

        // An empty drift never exceeds anything — not even over an empty
        // target, and not for a zero fraction.
        let none = InstanceDelta::default();
        assert!(!none.exceeds_fraction_of(&empty, 1, 2));
        assert!(!none.exceeds_fraction_of(&small, 0, 1));

        // A drift larger than the instance trips the hatch for any
        // fraction up to its actual ratio: 7 drifted atoms over a 1-atom
        // target exceed 1/2, 1/1, and even 6/1 — but not 7/1.
        let swap = InstanceDelta::between(&big, &small).unwrap();
        assert_eq!(swap.len(), 7); // 6 removed + 1 added
        assert!(swap.exceeds_fraction_of(&small, 1, 2));
        assert!(swap.exceeds_fraction_of(&small, 1, 1));
        assert!(swap.exceeds_fraction_of(&small, 6, 1));
        assert!(!swap.exceeds_fraction_of(&small, 7, 1));

        // den == 0 is an infinite threshold, not a division hazard.
        assert!(!swap.exceeds_fraction_of(&small, 1, 0));
        assert!(!swap.exceeds_fraction_of(&empty, 1, 0));

        // num == 0 with a finite den: any non-empty drift exceeds.
        assert!(swap.exceeds_fraction_of(&small, 0, 1));

        // Extreme fraction arguments must not overflow the products.
        assert!(swap.exceeds_fraction_of(&small, 0, usize::MAX));
        assert!(!swap.exceeds_fraction_of(&small, usize::MAX, 1));
    }

    /// Over random small bases, the Δ order of every pair of repairs
    /// equals the `Vec<DatabaseAtom>` order of the two materialised
    /// instances, and reads `Equal` exactly when the Δs are equal. The Δs
    /// include the empty one, one deleting the base's largest atom, one
    /// inserting above it and random mixes.
    #[test]
    fn repair_order_equals_atom_list_order() {
        let sc = schema();
        let (p, q) = (sc.rel_id("P").unwrap(), sc.rel_id("Q").unwrap());
        let values = [i(1), i(2), s("a")];
        // Every atom over the domain: 3 of P, then 9 of Q, ascending.
        let universe: Vec<DatabaseAtom> = values
            .iter()
            .map(|&v| DatabaseAtom::new(p, Tuple::new([v])))
            .chain(values.iter().flat_map(|&x| {
                values
                    .iter()
                    .map(move |&y| DatabaseAtom::new(q, Tuple::new([x, y])))
            }))
            .collect();
        let mut rng = XorShift::new(7001);
        for round in 0..300 {
            let mut base = Instance::empty(sc.clone());
            for atom in &universe {
                if rng.chance(1, 3) {
                    base.insert(atom.rel, atom.tuple.clone()).unwrap();
                }
            }
            let largest = base.atoms().last();
            let mut deltas = vec![Delta::default()];
            if let Some(top) = &largest {
                deltas.push(Delta::deletion(top.clone()));
            }
            if let Some(above) = universe.iter().find(|a| largest.as_ref() < Some(a)) {
                deltas.push(Delta::insertion(above.clone()));
            }
            for _ in 0..5 {
                let mut delta = Delta::default();
                for atom in &universe {
                    if base.contains(atom) {
                        if rng.chance(1, 3) {
                            delta.removed.insert(atom.clone());
                        }
                    } else if rng.chance(1, 4) {
                        delta.inserted.insert(atom.clone());
                    }
                }
                deltas.push(delta);
            }
            let lists: Vec<Vec<DatabaseAtom>> = deltas
                .iter()
                .map(|delta| {
                    let mut repair = base.clone();
                    repair.apply_delta(delta);
                    repair.atoms().collect()
                })
                .collect();
            for (a, list_a) in deltas.iter().zip(&lists) {
                for (b, list_b) in deltas.iter().zip(&lists) {
                    let order = repair_order(&base, a, b);
                    assert_eq!(order, list_a.cmp(list_b), "round {round}: {a:?} vs {b:?}");
                    assert_eq!(order.is_eq(), a == b, "round {round}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn mismatched_schemas_error() {
        let other = Schema::builder()
            .relation("Z", ["a"])
            .finish()
            .unwrap()
            .into_shared();
        let d = Instance::empty(schema());
        let d2 = Instance::empty(other);
        assert!(delta(&d, &d2).is_err());
    }
}
