//! The `≤_D` repair order (Definition 6), repair checking and
//! minimisation.
//!
//! For instances `D′, D″` over the schema of `D`:
//! `D′ ≤_D D″` iff for every atom `A ∈ Δ(D, D′)`:
//!
//! * `A ∈ Δ(D, D″)` (shared difference), or
//! * `A` contains nulls and some atom `Q(ā, b̄) ∈ Δ(D, D″) ∖ Δ(D, D′)`
//!   agrees with it on the non-null positions (clause (b) of
//!   Definition 6).
//!
//! **Reading note.** Definition 6(b) as printed demands a covering atom in
//! `Δ(D, D″) ∖ Δ(D, D′)` for *every* null atom of `Δ(D, D′)`, even one
//! shared by both differences. That literal reading makes `≤_D`
//! irreflexive on null-containing deltas and — decisively — contradicts
//! the paper's own repair sets: in Example 18, `D₁ ∪ {P(null, null)}`
//! would be incomparable to `D₁` and hence a fifth "repair". We therefore
//! read (b) as applying to *non-shared* null atoms, which reproduces
//! every ordering claim in Examples 16–18 (including `D₁ <_D D₅`) and
//! keeps `≤_D` reflexive. The brute-force property suite pins this down.
//!
//! A *repair* (Definition 7) is a `≤_D`-minimal consistent instance. With
//! nulls confined to repair-introduced values, clause (b) is what makes
//! `Q(ā, null)` strictly preferable to every `Q(ā, b)` with a concrete
//! `b` (Example 17: `R(b, null)` beats `R(b, d)`).

use crate::error::CoreError;
use cqa_constraints::{is_consistent, IcSet};
use cqa_relational::{delta, Delta, Instance};
use std::collections::BTreeSet;

/// `D′ ≤_D D″` over the common original instance `base`.
pub fn leq_d(base: &Instance, d1: &Instance, d2: &Instance) -> Result<bool, CoreError> {
    let delta1 = delta(base, d1)?;
    let delta2 = delta(base, d2)?;
    Ok(leq_d_deltas(&delta1, &delta2))
}

/// `D′ <_D D″` (strictly better).
pub fn lt_d(base: &Instance, d1: &Instance, d2: &Instance) -> Result<bool, CoreError> {
    let delta1 = delta(base, d1)?;
    let delta2 = delta(base, d2)?;
    Ok(leq_d_deltas(&delta1, &delta2) && !leq_d_deltas(&delta2, &delta1))
}

/// The order on precomputed symmetric differences.
pub fn leq_d_deltas(d1: &Delta, d2: &Delta) -> bool {
    for atom in d1.atoms() {
        // Shared differences are fine (clause (a); see the module docs for
        // why this also absorbs shared null atoms).
        if d2.contains(atom) {
            continue;
        }
        // A null-free non-shared difference breaks the order.
        if !atom.has_null() {
            return false;
        }
        // (b) a non-shared null atom must be covered by a *new* atom of Δ₂.
        let covered = d2.atoms().any(|b| !d1.contains(b) && atom.covered_by(b));
        if !covered {
            return false;
        }
    }
    true
}

/// Is `candidate` a repair of `d` wrt `ics`? (The coNP-complete decision
/// problem of Theorem 1, decided over the Proposition-1 candidate space.)
///
/// `candidate` must be consistent and `≤_D`-minimal among consistent
/// instances; minimality is certified against the provided pool of
/// consistent alternatives (callers use the brute-force universe for the
/// exact problem, or an engine-produced candidate set for the practical
/// one).
pub fn is_repair_among<'a>(
    base: &Instance,
    candidate: &Instance,
    ics: &IcSet,
    alternatives: impl IntoIterator<Item = &'a Instance>,
) -> Result<bool, CoreError> {
    if !is_consistent(candidate, ics) {
        return Ok(false);
    }
    let delta_c = delta(base, candidate)?;
    for alt in alternatives {
        let delta_a = delta(base, alt)?;
        if leq_d_deltas(&delta_a, &delta_c) && !leq_d_deltas(&delta_c, &delta_a) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Exact repair check: consistent + `≤_D`-minimal over the full
/// Proposition-1 candidate space (exponential; small inputs only — this is
/// the Theorem-1 problem, used by tests and the repair-check benchmark).
pub fn is_repair(base: &Instance, candidate: &Instance, ics: &IcSet) -> Result<bool, CoreError> {
    if !is_consistent(candidate, ics) {
        return Ok(false);
    }
    let universe = crate::bruteforce::candidate_universe(base, ics);
    let delta_c = delta(base, candidate)?;
    let mut better = false;
    crate::bruteforce::for_each_subset(base.schema().clone(), &universe, |alt| {
        if is_consistent(alt, ics) {
            if let Ok(delta_a) = delta(base, alt) {
                if leq_d_deltas(&delta_a, &delta_c) && !leq_d_deltas(&delta_c, &delta_a) {
                    better = true;
                    return false; // stop
                }
            }
        }
        true
    });
    Ok(!better)
}

/// The indices of the `≤_D`-minimal members of a delta pool — the
/// candidates not strictly dominated by any other. O(k² · Δ²): every
/// comparison walks two symmetric differences only, never an instance.
/// Callers that know each candidate's decision delta (the incremental
/// repair search does) skip recomputing Δ(D, candidate) entirely.
pub fn minimal_delta_indices(deltas: &[Delta]) -> Vec<usize> {
    (0..deltas.len())
        .filter(|&i| {
            let di = &deltas[i];
            !deltas
                .iter()
                .enumerate()
                .any(|(j, dj)| i != j && leq_d_deltas(dj, di) && !leq_d_deltas(di, dj))
        })
        .collect()
}

/// Reduce a candidate pool to its `≤_D`-minimal, de-duplicated members.
///
/// Recomputes Δ(D, candidate) per candidate (O(candidates × instance));
/// search code that already tracks decision deltas should de-duplicate by
/// [`Delta`] and call [`minimal_delta_indices`] directly instead.
pub fn minimize_candidates(
    base: &Instance,
    candidates: Vec<Instance>,
) -> Result<Vec<Instance>, CoreError> {
    // Deduplicate by symmetric difference: against one base, equal deltas
    // mean equal instances.
    let mut unique: Vec<Instance> = Vec::new();
    let mut deltas: Vec<Delta> = Vec::new();
    let mut seen: BTreeSet<Delta> = BTreeSet::new();
    for c in candidates {
        let d = delta(base, &c)?;
        if seen.insert(d.clone()) {
            unique.push(c);
            deltas.push(d);
        }
    }
    let mut keep: Vec<Instance> = minimal_delta_indices(&deltas)
        .into_iter()
        .map(|i| unique[i].clone())
        .collect();
    // Deterministic order: by atom list.
    keep.sort_by(|a, b| {
        a.atoms()
            .collect::<Vec<_>>()
            .cmp(&b.atoms().collect::<Vec<_>>())
    });
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{v, Constraint, Ic, IcSet};
    use cqa_relational::{null, s, DatabaseAtom, Instance, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("P", ["a", "b"])
            .relation("Q", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared()
    }

    fn inst(sc: &Arc<Schema>, rows: &[(&str, Vec<cqa_relational::Value>)]) -> Instance {
        let mut d = Instance::empty(sc.clone());
        for (rel, vals) in rows {
            d.insert_named(rel, cqa_relational::Tuple::new(vals.clone()))
                .unwrap();
        }
        d
    }

    #[test]
    fn example16_incomparability() {
        // D = {Q(a,b), P(a,c)}; D1 = {}; D2 = {P(a,c), Q(a,null)}.
        let sc = schema();
        let d = inst(
            &sc,
            &[("Q", vec![s("a"), s("b")]), ("P", vec![s("a"), s("c")])],
        );
        let d1 = inst(&sc, &[]);
        let d2 = inst(
            &sc,
            &[("P", vec![s("a"), s("c")]), ("Q", vec![s("a"), null()])],
        );
        assert!(!leq_d(&d, &d2, &d1).unwrap());
        assert!(!leq_d(&d, &d1, &d2).unwrap());
    }

    #[test]
    fn example17_null_insertion_dominates_value_insertion() {
        // D = {P(a,null), P(b,c), R(a,b)} with P → ∃z R(x,z). D1 inserts
        // R(b,null), D3 inserts R(b,d): D1 <_D D3.
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
        let d1 = d.with_atom(&DatabaseAtom::new(
            sc.rel_id("R").unwrap(),
            cqa_relational::Tuple::new(vec![s("b"), null()]),
        ));
        let d3 = d.with_atom(&DatabaseAtom::new(
            sc.rel_id("R").unwrap(),
            cqa_relational::Tuple::new(vec![s("b"), s("d")]),
        ));
        assert!(leq_d(&d, &d1, &d3).unwrap());
        assert!(!leq_d(&d, &d3, &d1).unwrap());
        assert!(lt_d(&d, &d1, &d3).unwrap());
    }

    #[test]
    fn leq_is_reflexive() {
        // Under the shared-atoms reading of Definition 6 (module docs),
        // ≤_D is reflexive — including for deltas containing null atoms —
        // and <_D is irreflexive.
        let sc = schema();
        let d = inst(&sc, &[("P", vec![s("a"), null()])]);
        let null_free = inst(
            &sc,
            &[("P", vec![s("a"), s("x")]), ("P", vec![s("a"), null()])],
        );
        assert!(leq_d(&d, &null_free, &null_free).unwrap());
        assert!(!lt_d(&d, &null_free, &null_free).unwrap());
        let with_null_delta = inst(
            &sc,
            &[("Q", vec![s("a"), null()]), ("P", vec![s("a"), null()])],
        );
        assert!(leq_d(&d, &with_null_delta, &with_null_delta).unwrap());
        assert!(!lt_d(&d, &with_null_delta, &with_null_delta).unwrap());
    }

    #[test]
    fn junk_null_insertions_are_dominated() {
        // The case the brute-force oracle caught during development:
        // {P(c0), R(c0,null)} must strictly dominate the same repair with
        // extra null atoms thrown in.
        let sc = Schema::builder()
            .relation("P", ["a"])
            .relation("R", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(&sc, &[("P", vec![s("c0")])]);
        let good = inst(&sc, &[("P", vec![s("c0")]), ("R", vec![s("c0"), null()])]);
        let junk = inst(
            &sc,
            &[
                ("P", vec![s("c0")]),
                ("P", vec![null()]),
                ("R", vec![s("c0"), null()]),
                ("R", vec![null(), null()]),
            ],
        );
        assert!(lt_d(&d, &good, &junk).unwrap());
        assert!(!lt_d(&d, &junk, &good).unwrap());
    }

    #[test]
    fn minimize_drops_dominated_candidates() {
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(&sc, &[("P", vec![s("b"), s("c")])]);
        let with_null = d.with_atom(&DatabaseAtom::new(
            sc.rel_id("R").unwrap(),
            cqa_relational::Tuple::new(vec![s("b"), null()]),
        ));
        let with_value = d.with_atom(&DatabaseAtom::new(
            sc.rel_id("R").unwrap(),
            cqa_relational::Tuple::new(vec![s("b"), s("d")]),
        ));
        let kept = minimize_candidates(&d, vec![with_value, with_null.clone(), with_null.clone()])
            .unwrap();
        assert_eq!(kept, vec![with_null]);
    }

    #[test]
    fn is_repair_exact_check_theorem1() {
        // The Theorem-1 decision problem over the full Prop.-1 space,
        // small enough for the exhaustive certifier.
        let sc = Schema::builder()
            .relation("P", ["a"])
            .relation("Q", ["x"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [s("a")]).unwrap();
        let ic = Ic::builder(&sc, "incl")
            .body_atom("P", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        // the two true repairs
        let deletion = Instance::empty(sc.clone());
        let mut insertion = d.clone();
        insertion.insert_named("Q", [s("a")]).unwrap();
        assert!(is_repair(&d, &deletion, &ics).unwrap());
        assert!(is_repair(&d, &insertion, &ics).unwrap());
        // a consistent non-minimal candidate is rejected
        let mut overkill = Instance::empty(sc.clone());
        overkill.insert_named("Q", [s("a")]).unwrap();
        assert!(!is_repair(&d, &overkill, &ics).unwrap());
        // an inconsistent candidate is rejected
        assert!(!is_repair(&d, &d, &ics).unwrap());
    }

    #[test]
    fn is_repair_among_detects_domination() {
        let sc = schema();
        // IC: P(x,y) → Q(x,y) — treat tiny case by hand.
        let ic = Ic::builder(&sc, "ic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("Q", [v("x"), v("y")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        let d = inst(&sc, &[("P", vec![s("a"), s("b")])]);
        let fix_insert = inst(
            &sc,
            &[("P", vec![s("a"), s("b")]), ("Q", vec![s("a"), s("b")])],
        );
        let fix_delete = inst(&sc, &[]);
        let overkill = inst(&sc, &[("Q", vec![s("a"), s("b")])]); // delete AND insert
        let pool = [fix_insert.clone(), fix_delete.clone(), overkill.clone()];
        assert!(is_repair_among(&d, &fix_insert, &ics, &pool).unwrap());
        assert!(is_repair_among(&d, &fix_delete, &ics, &pool).unwrap());
        assert!(!is_repair_among(&d, &overkill, &ics, &pool).unwrap());
        // inconsistent candidates are never repairs
        assert!(!is_repair_among(&d, &d, &ics, &pool).unwrap());
    }
}
