//! Alternative null-value semantics: the baselines the paper compares its
//! `|=_N` against in Section 3 (Examples 4, 5, 9).
//!
//! * [`AltSemantics::Bb04`] — the semantics of Bravo & Bertossi 2004
//!   (reference \[10\] of the paper): a ground antecedent containing a tuple
//!   with a null *anywhere* never causes an inconsistency.
//! * [`AltSemantics::SimpleMatch`] — SQL:2003 simple match, the one
//!   commercial DBMSs implement for foreign keys, generalised to form (1)
//!   the way the paper does (this coincides with `|=_N` on the paper's
//!   examples; `|=_N` *is* its generalisation).
//! * [`AltSemantics::PartialMatch`] — SQL:2003 partial match: non-null
//!   referencing values must match; nulls act as wildcards; an all-null
//!   reference is satisfied outright.
//! * [`AltSemantics::FullMatch`] — SQL:2003 full match: either all
//!   referencing values are null, or none is and an exact witness exists.
//! * [`AltSemantics::LeveneLoizou`] — the information-order semantics of
//!   Levene & Loizou for inclusion dependencies (Example 9): the
//!   referencing vector `t₁` must carry no more information than some
//!   referenced vector `t₂`, written `t₁ ⊑ t₂`.
//!
//! The "referencing values" of a general form-(1) ground constraint are
//! taken to be the values of the relevant universal variables — exactly
//! the positions a DBMS would look at, and the set the paper's IsNull
//! escape quantifies over.

use crate::ast::{Ic, Term, VarId};
use crate::incremental::body_join;
use crate::satisfaction::{head_witness, phi_escape, SatMode};
use cqa_relational::{Instance, Order, Tuple, Value};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// The competing semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AltSemantics {
    /// Bravo & Bertossi 2004 (\[10\]): all-null-tolerant antecedents.
    Bb04,
    /// SQL:2003 simple match (generalised).
    SimpleMatch,
    /// SQL:2003 partial match (generalised).
    PartialMatch,
    /// SQL:2003 full match (generalised).
    FullMatch,
    /// Levene–Loizou null inclusion dependencies.
    LeveneLoizou,
}

impl AltSemantics {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            AltSemantics::Bb04 => "BB04 [10]",
            AltSemantics::SimpleMatch => "simple match",
            AltSemantics::PartialMatch => "partial match",
            AltSemantics::FullMatch => "full match",
            AltSemantics::LeveneLoizou => "Levene-Loizou",
        }
    }
}

/// Does `instance` satisfy `ic` under the given alternative semantics?
pub fn satisfies_alt(instance: &Instance, ic: &Ic, semantics: AltSemantics) -> bool {
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    let join = body_join(instance, ic.body(), Order::Body);
    let result =
        join.run(&mut bindings, None, |bindings, matched| {
            let ok =
                match semantics {
                    AltSemantics::Bb04 => {
                        (0..ic.body().len()).any(|k| matched.row(k).is_some_and(Tuple::has_null))
                            || phi_escape(ic, bindings)
                            || ic.head().iter().any(|h| {
                                head_witness(instance, ic, h, SatMode::NullAware, bindings)
                            })
                    }
                    AltSemantics::SimpleMatch => {
                        // Null in any relevant (referencing) value → satisfied;
                        // otherwise an exact witness on relevant attributes.
                        referencing_values(ic, bindings).iter().any(|v| v.is_null())
                            || phi_escape(ic, bindings)
                            || ic.head().iter().any(|h| {
                                head_witness(instance, ic, h, SatMode::NullAware, bindings)
                            })
                    }
                    AltSemantics::PartialMatch => {
                        let refs = referencing_values(ic, bindings);
                        refs.iter().all(|v| v.is_null()) && !refs.is_empty()
                            || phi_escape(ic, bindings)
                            || ic
                                .head()
                                .iter()
                                .any(|h| leq_information_witness(instance, ic, h, bindings))
                    }
                    AltSemantics::FullMatch => {
                        let refs = referencing_values(ic, bindings);
                        let nulls = refs.iter().filter(|v| v.is_null()).count();
                        if nulls == refs.len() && !refs.is_empty() {
                            true // all referencing values null
                        } else if nulls > 0 {
                            false // mixed: full match forbids partially-null references
                        } else {
                            phi_escape(ic, bindings)
                                || ic.head().iter().any(|h| {
                                    head_witness(instance, ic, h, SatMode::NullAware, bindings)
                                })
                        }
                    }
                    AltSemantics::LeveneLoizou => {
                        phi_escape(ic, bindings)
                            || ic
                                .head()
                                .iter()
                                .any(|h| leq_information_witness(instance, ic, h, bindings))
                    }
                };
            if ok {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
    matches!(result, ControlFlow::Continue(()))
}

/// The values of the relevant universal variables under the assignment —
/// the generalised "referencing columns".
fn referencing_values(ic: &Ic, bindings: &[Option<Value>]) -> Vec<Value> {
    ic.relevant()
        .escape_vars()
        .iter()
        .filter_map(|v| bindings[v.index()])
        .collect()
}

/// A head witness under the information order: some tuple `t₂` of
/// `atom`'s relation with `t₁ ⊑ t₂` on the relevant positions, where `t₁`
/// is the referencing projection under `bindings`. `t₁ ⊑ t₂` holds when
/// each value of `t₁` is null or equal to `t₂`'s, so a null in `t₂`
/// matches no concrete value of `t₁` (Example 9: `(W04, 34)` is not
/// covered by `(W04, null)`). Levene–Loizou and partial match, whose
/// referencing nulls are wildcards, both test this.
fn leq_information_witness(
    instance: &Instance,
    ic: &Ic,
    atom: &crate::ast::IcAtom,
    bindings: &[Option<Value>],
) -> bool {
    'tuples: for t in instance.relation(atom.rel) {
        let mut local: BTreeMap<VarId, &Value> = BTreeMap::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            if !ic.relevant().is_relevant(atom.rel, pos) {
                continue;
            }
            let val = t.get(pos);
            match term {
                Term::Const(c) => {
                    if val != c {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => {
                    if let Some(bound) = &bindings[v.index()] {
                        // bound ⊑ val: equal, or bound itself null.
                        if !bound.is_null() && bound != val {
                            continue 'tuples;
                        }
                    } else {
                        match local.get(v) {
                            Some(prev) => {
                                if *prev != val {
                                    continue 'tuples;
                                }
                            }
                            None => {
                                local.insert(*v, val);
                            }
                        }
                    }
                }
            }
        }
        return true;
    }
    false
}

/// One row of the Example 4 comparison matrix: verdicts of every
/// semantics (including the paper's `|=_N`) for one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticsRow {
    /// Constraint name.
    pub constraint: String,
    /// `(semantics label, consistent?)` pairs, in a fixed order, with the
    /// paper's `|=_N` first.
    pub verdicts: Vec<(&'static str, bool)>,
}

/// Build the full comparison matrix for a set of form-(1) constraints.
pub fn semantics_matrix(instance: &Instance, ics: &[&Ic]) -> Vec<SemanticsRow> {
    let alts = [
        AltSemantics::Bb04,
        AltSemantics::SimpleMatch,
        AltSemantics::PartialMatch,
        AltSemantics::FullMatch,
        AltSemantics::LeveneLoizou,
    ];
    ics.iter()
        .map(|ic| {
            let mut verdicts = vec![(
                "|=_N (this paper)",
                crate::satisfaction::satisfies_via_projection(instance, ic),
            )];
            for alt in alts {
                verdicts.push((alt.label(), satisfies_alt(instance, ic, alt)));
            }
            SemanticsRow {
                constraint: ic.name().to_string(),
                verdicts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{v, Ic};
    use cqa_relational::{i, null, s, Instance, Schema};
    use std::sync::Arc;

    /// Example 4's schema and database D = {P(a, b, null)}.
    fn example4() -> (Schema, Instance, Ic, Ic) {
        let sc = Schema::builder()
            .relation("P", ["A", "B", "C"])
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap();
        let psi1 = Ic::builder(&sc, "psi1")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .head_atom("R", [v("y"), v("z")])
            .finish()
            .unwrap();
        let psi2 = Ic::builder(&sc, "psi2")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let mut d = Instance::empty(Arc::new(sc.clone()));
        d.insert_named("P", [s("a"), s("b"), null()]).unwrap();
        (sc, d, psi1, psi2)
    }

    #[test]
    fn example4_psi1_verdicts() {
        let (_, d, psi1, _) = example4();
        // (a) consistent under BB04 (null in the tuple);
        assert!(satisfies_alt(&d, &psi1, AltSemantics::Bb04));
        // (b) consistent under simple match (null in a relevant attribute);
        assert!(satisfies_alt(&d, &psi1, AltSemantics::SimpleMatch));
        // (c) inconsistent under partial match (no R tuple with b first);
        assert!(!satisfies_alt(&d, &psi1, AltSemantics::PartialMatch));
        // (d) inconsistent under full match (mixed null reference).
        assert!(!satisfies_alt(&d, &psi1, AltSemantics::FullMatch));
        // the paper's semantics agrees with simple match here:
        assert!(crate::satisfaction::satisfies_via_projection(&d, &psi1));
    }

    #[test]
    fn example4_psi2_verdicts() {
        let (_, d, _, psi2) = example4();
        // Only BB04 accepts: the null is not in a relevant attribute.
        assert!(satisfies_alt(&d, &psi2, AltSemantics::Bb04));
        assert!(!satisfies_alt(&d, &psi2, AltSemantics::SimpleMatch));
        assert!(!satisfies_alt(&d, &psi2, AltSemantics::PartialMatch));
        assert!(!satisfies_alt(&d, &psi2, AltSemantics::FullMatch));
        assert!(!crate::satisfaction::satisfies_via_projection(&d, &psi2));
    }

    #[test]
    fn partial_match_wildcard_succeeds_when_referenced_row_exists() {
        let (sc, _, psi1, _) = example4();
        let mut d = Instance::empty(Arc::new(sc));
        d.insert_named("P", [s("a"), s("b"), null()]).unwrap();
        d.insert_named("R", [s("b"), s("anything")]).unwrap();
        // partial: non-null referencing value b matches R(b, _).
        assert!(satisfies_alt(&d, &psi1, AltSemantics::PartialMatch));
        // full: still rejected (mixed reference).
        assert!(!satisfies_alt(&d, &psi1, AltSemantics::FullMatch));
    }

    #[test]
    fn full_match_accepts_all_null_reference() {
        let (sc, _, psi1, _) = example4();
        let mut d = Instance::empty(Arc::new(sc));
        d.insert_named("P", [s("a"), null(), null()]).unwrap();
        assert!(satisfies_alt(&d, &psi1, AltSemantics::FullMatch));
        assert!(satisfies_alt(&d, &psi1, AltSemantics::PartialMatch));
    }

    #[test]
    fn example9_levene_loizou() {
        // Course(x,y,z) → Employee(y,z); (W04,34) vs Employee(W04,null):
        // inconsistent, because (W04,34) ⋢ (W04,null).
        let sc = Schema::builder()
            .relation("Course", ["Code", "Term", "ID"])
            .relation("Employee", ["Term", "ID"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&sc, "ref")
            .body_atom("Course", [v("x"), v("y"), v("z")])
            .head_atom("Employee", [v("y"), v("z")])
            .finish()
            .unwrap();
        let mut d = Instance::empty(Arc::new(sc));
        d.insert_named("Course", [s("CS18"), s("W04"), i(34)])
            .unwrap();
        d.insert_named("Employee", [s("W04"), null()]).unwrap();
        assert!(!satisfies_alt(&d, &ic, AltSemantics::LeveneLoizou));
        // The *referencing* side may hold the null:
        let mut d2 = d.clone();
        d2.insert_named("Course", [s("CS19"), s("W05"), null()])
            .unwrap();
        d2.insert_named("Employee", [s("W05"), i(7)]).unwrap();
        d2.remove(
            d2.schema().rel_id("Course").unwrap(),
            &cqa_relational::Tuple::new(vec![s("CS18"), s("W04"), i(34)]),
        );
        assert!(satisfies_alt(&d2, &ic, AltSemantics::LeveneLoizou));
    }

    #[test]
    fn body_matching_registers_the_join_indexes() {
        // The body join lists the root atom by a scan, probes an inner
        // atom with one bound column through a `ColumnIndex` it registers
        // on the caller's instance, and tests an atom whose columns are
        // all bound for membership, which registers nothing.
        let sc = Schema::builder()
            .relation("P", ["A", "B", "C"])
            .relation("R", ["X", "Y"])
            .relation("S", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let ic = Ic::builder(&sc, "denial")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .body_atom("R", [v("y"), v("w")])
            .body_atom("S", [v("y"), v("w")])
            .finish()
            .unwrap();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [s("a"), s("b"), null()]).unwrap();
        d.insert_named("R", [s("b"), s("c")]).unwrap();
        d.insert_named("S", [s("b"), s("c")]).unwrap();
        assert!(!satisfies_alt(&d, &ic, AltSemantics::SimpleMatch));
        let rel = |name| sc.rel_id(name).unwrap();
        assert!(d.indexed_columns(rel("P")).is_empty());
        assert_eq!(d.indexed_columns(rel("R")), vec![0]);
        assert!(d.indexed_columns(rel("S")).is_empty());
        for name in ["P", "R", "S"] {
            assert!(d.indexed_column_sets(rel(name)).is_empty());
        }
    }

    #[test]
    fn all_semantics_agree_on_null_free_instances() {
        let (sc, _, psi1, psi2) = example4();
        let mut d = Instance::empty(Arc::new(sc));
        d.insert_named("P", [s("a"), s("b"), s("c")]).unwrap();
        d.insert_named("R", [s("b"), s("c")]).unwrap();
        for alt in [
            AltSemantics::Bb04,
            AltSemantics::SimpleMatch,
            AltSemantics::PartialMatch,
            AltSemantics::FullMatch,
            AltSemantics::LeveneLoizou,
        ] {
            assert!(satisfies_alt(&d, &psi1, alt), "{:?}", alt);
            assert!(!satisfies_alt(&d, &psi2, alt), "{:?}", alt);
        }
    }

    #[test]
    fn matrix_shape() {
        let (_, d, psi1, psi2) = example4();
        let m = semantics_matrix(&d, &[&psi1, &psi2]);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].verdicts.len(), 6);
        assert_eq!(m[0].verdicts[0].0, "|=_N (this paper)");
        assert!(m[0].verdicts[0].1);
        assert!(!m[1].verdicts[0].1);
    }
}
