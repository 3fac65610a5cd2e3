//! Relevant attributes `A(ψ)` (Definition 2) and projections `D^A`
//! (Definition 3).
//!
//! For a term `t`, `pos_R(ψ, t)` is the set of positions of predicate `R`
//! where `t` appears in ψ. Then
//!
//! ```text
//! A(ψ) = { R[i] | x a variable occurring at least twice in ψ, i ∈ pos_R(ψ, x) }
//!      ∪ { R[i] | c a constant of ψ,                        i ∈ pos_R(ψ, c) }
//! ```
//!
//! Informally: attributes involved in joins, attributes shared between
//! antecedent and consequent, attributes constrained by ϕ, and attributes
//! compared to constants.
//!
//! Occurrences are counted across the *whole* formula — body atoms, head
//! atoms, and ϕ (a variable occurring once in the body and once in ϕ
//! occurs twice, making its body position relevant; cf. Example 6 where
//! only `Salary` is relevant).
//!
//! The IsNull-escape set of formula (4), written `A(ψ) ∩ x̄` in the paper,
//! is implemented as: the universally quantified variables that occur at
//! some relevant position. This includes the (rare) case of a variable
//! occurring once at a position made relevant by a *different* term — the
//! reading consistent with evaluating `ψ^N` over `D^{A(ψ)}`, where every
//! remaining antecedent position is relevant.

use crate::ast::{Builtin, IcAtom, Term, VarId};
use cqa_relational::{Instance, RelId, Schema, Tuple};
use std::collections::BTreeSet;

/// The relevant-attribute metadata of one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelevantAttrs {
    positions: BTreeSet<(RelId, usize)>,
    escape_vars: BTreeSet<VarId>,
    occurrences: Vec<usize>,
}

impl RelevantAttrs {
    /// Compute `A(ψ)` for a validated constraint body/head/ϕ.
    pub(crate) fn compute(
        body: &[IcAtom],
        head: &[IcAtom],
        builtins: &[Builtin],
        universal: &BTreeSet<VarId>,
        var_count: usize,
    ) -> Self {
        let mut occurrences = vec![0usize; var_count];
        let atom_occurrence = |occ: &mut Vec<usize>, atom: &IcAtom| {
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    occ[v.index()] += 1;
                }
            }
        };
        for atom in body.iter().chain(head) {
            atom_occurrence(&mut occurrences, atom);
        }
        for b in builtins {
            for t in [&b.lhs, &b.rhs] {
                if let Term::Var(v) = t {
                    occurrences[v.index()] += 1;
                }
            }
        }

        let mut positions = BTreeSet::new();
        for atom in body.iter().chain(head) {
            for (pos, t) in atom.terms.iter().enumerate() {
                let relevant = match t {
                    Term::Const(_) => true,
                    Term::Var(v) => occurrences[v.index()] >= 2,
                };
                if relevant {
                    positions.insert((atom.rel, pos));
                }
            }
        }

        // Escape variables: universal variables sitting at some relevant
        // position (relevance is per (relation, position), so a second pass
        // is required — a position can be relevant because of *another*
        // atom over the same relation).
        let mut escape_vars = BTreeSet::new();
        for atom in body.iter().chain(head) {
            for (pos, t) in atom.terms.iter().enumerate() {
                if let Term::Var(v) = t {
                    if universal.contains(v) && positions.contains(&(atom.rel, pos)) {
                        escape_vars.insert(*v);
                    }
                }
            }
        }

        RelevantAttrs {
            positions,
            escape_vars,
            occurrences,
        }
    }

    /// Is attribute `(rel, pos)` (0-based) relevant?
    pub fn is_relevant(&self, rel: RelId, pos: usize) -> bool {
        self.positions.contains(&(rel, pos))
    }

    /// All relevant attributes.
    pub fn positions(&self) -> &BTreeSet<(RelId, usize)> {
        &self.positions
    }

    /// Universal variables subject to the IsNull escape of formula (4).
    pub fn escape_vars(&self) -> &BTreeSet<VarId> {
        &self.escape_vars
    }

    /// Number of occurrences of a variable across the whole formula.
    pub fn occurrences(&self, v: VarId) -> usize {
        self.occurrences[v.index()]
    }

    /// The kept (relevant) positions of one relation, sorted — the columns
    /// of `R^{A(ψ)}` in Definition 3.
    pub fn kept_positions(&self, rel: RelId) -> Vec<usize> {
        self.positions
            .iter()
            .filter(|(r, _)| *r == rel)
            .map(|(_, p)| *p)
            .collect()
    }

    /// Project one relation of an instance onto its relevant attributes:
    /// `R^{A}(Π_A(t̄))` for every `R(t̄) ∈ D` (Definition 3).
    pub fn project_relation(&self, instance: &Instance, rel: RelId) -> BTreeSet<Tuple> {
        let kept = self.kept_positions(rel);
        instance
            .relation(rel)
            .iter()
            .map(|t| t.project(&kept))
            .collect()
    }

    /// Render as the paper's 1-based `R[i]` notation, e.g.
    /// `{P\[1\], P\[2\], R\[1\], R\[2\]}`.
    pub fn display(&self, schema: &Schema) -> String {
        let names: Vec<String> = self
            .positions
            .iter()
            .map(|(rel, pos)| format!("{}[{}]", schema.relation(*rel).name(), pos + 1))
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{c, v, CmpOp, Ic};
    use cqa_relational::{s, Schema};

    fn schema3() -> Schema {
        Schema::builder()
            .relation("P", ["a", "b", "c"])
            .relation("R", ["x", "y"])
            .relation("T", ["t"])
            .finish()
            .unwrap()
    }

    #[test]
    fn example10_psi_relevant_attrs() {
        // ψ: ∀xyz (P(x,y,z) → R(x,y));  A(ψ) = {P[1], R[1], P[2], R[2]}.
        let sc = schema3();
        let ic = Ic::builder(&sc, "psi")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        assert_eq!(ic.relevant().display(&sc), "{P[1], P[2], R[1], R[2]}");
        let p = sc.rel_id("P").unwrap();
        assert!(!ic.relevant().is_relevant(p, 2)); // z occurs once
        assert_eq!(ic.relevant().escape_vars().len(), 2); // x, y
    }

    #[test]
    fn example10_gamma_relevant_attrs() {
        // γ: ∀xyzw (P(x,y,z) ∧ R(z,w) → ∃v R(x,v) ∨ w > 3)
        // A(γ) = {P[1], R[1], P[3], R[2]}.
        let sc = schema3();
        let ic = Ic::builder(&sc, "gamma")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .body_atom("R", [v("z"), v("w")])
            .head_atom("R", [v("x"), v("vv")])
            .builtin(v("w"), CmpOp::Gt, c(3))
            .finish()
            .unwrap();
        assert_eq!(ic.relevant().display(&sc), "{P[1], P[3], R[1], R[2]}");
        // escape vars: x (P[1], R[1]), z (P[3], R[1]), w (R[2]); y occurs once.
        assert_eq!(ic.relevant().escape_vars().len(), 3);
    }

    #[test]
    fn example6_check_constraint_only_compared_attr_relevant() {
        // Emp(id, name, salary) → salary > 100: only Salary relevant.
        let sc = Schema::builder()
            .relation("Emp", ["ID", "Name", "Salary"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&sc, "chk")
            .body_atom("Emp", [v("i"), v("n"), v("s")])
            .builtin(v("s"), CmpOp::Gt, c(100))
            .finish()
            .unwrap();
        assert_eq!(ic.relevant().display(&sc), "{Emp[3]}");
        assert_eq!(ic.relevant().escape_vars().len(), 1);
    }

    #[test]
    fn example13_repeated_existential_is_relevant() {
        // ψ: P(x,y) → ∃z Q(x,z,z): A(ψ) = {P[1], Q[1], Q[2], Q[3]}.
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("Q", ["x", "y", "z"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&sc, "ex13")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("Q", [v("x"), v("z"), v("z")])
            .finish()
            .unwrap();
        assert_eq!(ic.relevant().display(&sc), "{P[1], Q[1], Q[2], Q[3]}");
        // z is existential, hence never an escape var.
        assert_eq!(ic.relevant().escape_vars().len(), 1); // x only
    }

    #[test]
    fn constants_make_positions_relevant() {
        let sc = schema3();
        let ic = Ic::builder(&sc, "k")
            .body_atom("R", [v("x"), c(5)])
            .head_atom("T", [v("x")])
            .finish()
            .unwrap();
        let r = sc.rel_id("R").unwrap();
        assert!(ic.relevant().is_relevant(r, 1)); // constant position
        assert!(ic.relevant().is_relevant(r, 0)); // x occurs twice
    }

    #[test]
    fn position_relevance_is_global_per_relation() {
        // P(x,y,q) ∧ P(y,z,w) → false: y occurs twice at P[2] (atom 1) and
        // P[1] (atom 2); x, z occur once but sit at globally relevant
        // positions, so they become escape variables.
        let sc = schema3();
        let ic = Ic::builder(&sc, "j")
            .body_atom("P", [v("x"), v("y"), v("q")])
            .body_atom("P", [v("y"), v("z"), v("w")])
            .finish()
            .unwrap();
        let p = sc.rel_id("P").unwrap();
        assert!(ic.relevant().is_relevant(p, 0));
        assert!(ic.relevant().is_relevant(p, 1));
        assert!(!ic.relevant().is_relevant(p, 2));
        // escapes: y (twice) plus x and z via shared positions, not q/w.
        assert_eq!(ic.relevant().escape_vars().len(), 3);
    }

    #[test]
    fn projection_of_example10() {
        // D = {P(a,b,a), P(b,c,a)}; P^A(ψ) keeps columns 1,2.
        let sc = schema3();
        let ic = Ic::builder(&sc, "psi")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let mut d = Instance::empty(sc.clone().into_shared());
        d.insert_named("P", [s("a"), s("b"), s("a")]).unwrap();
        d.insert_named("P", [s("b"), s("c"), s("a")]).unwrap();
        let p = sc.rel_id("P").unwrap();
        let projected = ic.relevant().project_relation(&d, p);
        let expect: BTreeSet<Tuple> = [
            Tuple::new(vec![s("a"), s("b")]),
            Tuple::new(vec![s("b"), s("c")]),
        ]
        .into_iter()
        .collect();
        assert_eq!(projected, expect);
    }
}
