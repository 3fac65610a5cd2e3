//! The FO-rewrite fast path: consistent answers for key FDs + NOT NULL
//! constraints by guarded evaluation on the inconsistent instance.
//!
//! The classic first-order-rewritable CQA class (Fuxman & Miller): under
//! primary-key FDs, a quantifier-free conjunctive query is rewritten so
//! each atom `R(x̄)` carries the guard "no tuple sharing `x̄`'s key
//! disagrees on the dependent position". Our conjunctive-query core only
//! supports atom-level negation, and the guard is a negated *conjunction*
//! (`¬∃t′: same key ∧ different value`), so instead of materialising the
//! rewritten formula the guard is evaluated directly: one index probe on
//! the FD's determinant per (candidate tuple, FD) — semantically the same
//! rewritten query, at O(log n) per guard.
//!
//! The candidates come from the planner's `for_each_match` and the
//! partners from the FD probe, both listed through
//! [`cqa_relational::Candidates`] over the caller's instance, so they share
//! its indexes: a one-column key is the same `ColumnIndex` a point read on
//! that column probes (and the constraint checker registers), not a second,
//! composite index on the same column.
//!
//! Null-awareness sharpens the guard in two ways (see `plan.rs` for the
//! derivation):
//!
//! * an FD under `|=_N` escapes when any of its relevant attributes is
//!   null — determinant values and both dependent values must be non-null
//!   for a conflict to exist at all;
//! * a conflicting partner that itself violates a NOT NULL constraint is
//!   in *no* repair, so it cannot push the candidate out of any repair —
//!   such partners are ignored by the guard.

use crate::plan::TupleOracle;
use cqa_constraints::{fd_key_columns, FdKey, IcSet};
use cqa_relational::{Candidates, IndexBuild, Instance, RelId, Value};
use std::collections::HashMap;

/// Per-relation guard data: the key FDs and NOT NULL positions that
/// constrain it.
#[derive(Debug, Default)]
struct RelGuards {
    fds: Vec<FdKey>,
    not_null: Vec<usize>,
}

/// The compiled guard set for one `(instance, IcSet)` pair. Answers the
/// planner's sure / in-no-repair oracle by index probes on the instance.
pub(crate) struct RewriteOracle<'a> {
    d: &'a Instance,
    by_rel: HashMap<RelId, RelGuards>,
}

impl<'a> RewriteOracle<'a> {
    /// Compile the guards. The planner only routes here when every
    /// constraint is a key-style FD or a NOT NULL constraint.
    pub(crate) fn new(d: &'a Instance, ics: &IcSet) -> Self {
        let mut by_rel: HashMap<RelId, RelGuards> = HashMap::new();
        for c in ics.constraints() {
            if let Some(nnc) = c.as_nnc() {
                by_rel
                    .entry(nnc.rel)
                    .or_default()
                    .not_null
                    .push(nnc.position);
            } else if let Some(ic) = c.as_ic() {
                let fd = fd_key_columns(ic)
                    .expect("planner dispatches the FO route only on key-FD sets");
                by_rel.entry(fd.rel).or_default().fds.push(fd);
            }
        }
        RewriteOracle { d, by_rel }
    }

    /// Does the tuple violate a NOT NULL constraint on its relation (and
    /// is therefore in no repair)?
    fn violates_nnc(&self, rel: RelId, values: &[Value]) -> bool {
        self.by_rel
            .get(&rel)
            .is_some_and(|g| g.not_null.iter().any(|&p| values[p].is_null()))
    }
}

impl TupleOracle for RewriteOracle<'_> {
    fn sure(&self, rel: RelId, values: &[Value]) -> bool {
        if self.violates_nnc(rel, values) {
            return false;
        }
        let Some(guards) = self.by_rel.get(&rel) else {
            return true; // unconstrained relation: every tuple survives
        };
        for fd in &guards.fds {
            // Escape: a null in the FD's relevant attributes means this
            // tuple can never witness a violation of it.
            if fd.determinant.iter().any(|&p| values[p].is_null()) || values[fd.dependent].is_null()
            {
                continue;
            }
            let key: Vec<Value> = fd.determinant.iter().map(|&p| values[p]).collect();
            let partners =
                Candidates::new(self.d, rel, &fd.determinant, &key, IndexBuild::OnFirstUse);
            for partner in partners.iter() {
                let dep = partner.get(fd.dependent);
                if !dep.is_null()
                    && *dep != values[fd.dependent]
                    && !self.violates_nnc(rel, partner.values())
                {
                    // A live key-conflicting partner: some repair keeps it
                    // and drops the candidate.
                    return false;
                }
            }
        }
        true
    }

    fn in_no_repair(&self, rel: RelId, values: &[Value]) -> bool {
        // Under key FDs + NOT NULL the only single-tuple violations are
        // NOT NULL ones (FD edges always pair two distinct tuples).
        self.violates_nnc(rel, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::builders;
    use cqa_relational::{null, s, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Instance, IcSet) {
        let sc = Schema::builder()
            .relation("R", ["K", "V"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("k1"), s("a")]).unwrap(); // clean
        d.insert_named("R", [s("k2"), s("a")]).unwrap(); // conflicting pair
        d.insert_named("R", [s("k2"), s("b")]).unwrap();
        d.insert_named("R", [s("k3"), null()]).unwrap(); // null dependent: escapes
        d.insert_named("R", [s("k3"), s("c")]).unwrap();
        d.insert_named("R", [null(), s("z")]).unwrap(); // null key: escapes
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        (sc, d, ics)
    }

    fn tuple_values(vals: &[Value]) -> Vec<Value> {
        vals.to_vec()
    }

    #[test]
    fn guard_matches_fd_conflict_structure() {
        let (sc, d, ics) = setup();
        let rel = sc.rel_id("R").unwrap();
        let oracle = RewriteOracle::new(&d, &ics);
        // Clean tuple: sure.
        assert!(oracle.sure(rel, &tuple_values(&[s("k1"), s("a")])));
        // Conflicting pair: neither is sure, both are in some repair.
        assert!(!oracle.sure(rel, &tuple_values(&[s("k2"), s("a")])));
        assert!(!oracle.sure(rel, &tuple_values(&[s("k2"), s("b")])));
        assert!(!oracle.in_no_repair(rel, &tuple_values(&[s("k2"), s("a")])));
        // Null dependent escapes the FD: both k3 tuples are sure.
        assert!(oracle.sure(rel, &tuple_values(&[s("k3"), null()])));
        assert!(oracle.sure(rel, &tuple_values(&[s("k3"), s("c")])));
        // Null determinant escapes too.
        assert!(oracle.sure(rel, &tuple_values(&[null(), s("z")])));
    }

    #[test]
    fn nnc_violating_partner_cannot_unseat_a_tuple() {
        let sc = Schema::builder()
            .relation("R", ["K", "V", "W"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("k"), s("a"), s("ok")]).unwrap();
        // Key-conflicting partner, but it violates NOT NULL on W: it is in
        // no repair, so it cannot push the first tuple out of any repair.
        d.insert_named("R", [s("k"), s("b"), null()]).unwrap();
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::not_null(&sc, "R", 2).unwrap());
        let rel = sc.rel_id("R").unwrap();
        let oracle = RewriteOracle::new(&d, &ics);
        assert!(oracle.sure(rel, &tuple_values(&[s("k"), s("a"), s("ok")])));
        assert!(oracle.in_no_repair(rel, &tuple_values(&[s("k"), s("b"), null()])));
        assert!(!oracle.sure(rel, &tuple_values(&[s("k"), s("b"), null()])));
    }
}
