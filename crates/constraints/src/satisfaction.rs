//! IC satisfaction in databases with null values: `D |=_N ψ`
//! (Definition 4), classical satisfaction, and violation reporting.
//!
//! Definition 4 says `D |=_N ψ` iff `D^{A(ψ)} |= ψ^N`, where `ψ^N` extends
//! ψ's consequent with IsNull-disjuncts over the relevant universal
//! variables and restricts every atom to its relevant attributes; the
//! resulting formula is evaluated classically with `null` treated as any
//! other constant (Example 12).
//!
//! [`violations`] evaluates this *directly on the instance*, without
//! materialising projections. The two are equivalent because a
//! non-relevant position holds, by Definition 2, a variable occurring
//! exactly once in ψ — which constrains nothing on either side of the
//! implication:
//!
//! * in the antecedent, a once-occurring variable matches any value, so
//!   dropping the column does not change the set of assignments over the
//!   remaining variables;
//! * in the consequent, a once-occurring variable is existential and
//!   unconstrained, so a witness tuple only has to agree on relevant
//!   positions — exactly the `Q^{A}` match.
//!
//! The projection-based checker [`satisfies_via_projection`] implements
//! Definition 4 literally and is used as a cross-check in tests and
//! property suites.

use crate::ast::{Ic, IcAtom, IcSet, Nnc, Term, VarId};
use cqa_relational::{DatabaseAtom, Instance, Schema, Value};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Which satisfaction relation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SatMode {
    /// The paper's `|=_N` (Definition 4): IsNull escapes on relevant
    /// universal variables; witnesses matched on relevant attributes.
    #[default]
    NullAware,
    /// Classical first-order satisfaction with `null` as an ordinary
    /// constant: no escapes, witnesses matched on every attribute.
    /// On null-free instances this coincides with `NullAware` (the paper's
    /// remark after Definition 4).
    Classical,
}

/// Why a constraint is violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A ground instantiation of a form-(1) constraint whose antecedent
    /// holds while no escape or witness applies.
    Tgd {
        /// Value of each constraint variable (indexed by [`VarId`];
        /// existential variables are `None`).
        bindings: Vec<Option<Value>>,
        /// The ground body atoms matched by the assignment, in body order.
        body_atoms: Vec<DatabaseAtom>,
    },
    /// A tuple with `null` at a NOT NULL position.
    NotNull {
        /// The offending atom.
        atom: DatabaseAtom,
        /// The guarded 0-based position.
        position: usize,
    },
}

/// A single constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated constraint within the [`IcSet`].
    pub constraint_index: usize,
    /// The witness.
    pub kind: ViolationKind,
}

impl Violation {
    /// Human-readable rendering, e.g.
    /// `psi1 violated by P(a, b, null) with {x=a, y=b}`.
    pub fn display(&self, schema: &Schema, ics: &IcSet) -> String {
        let name = ics.constraints()[self.constraint_index].name();
        match &self.kind {
            ViolationKind::Tgd {
                bindings,
                body_atoms,
            } => {
                let ic = ics.constraints()[self.constraint_index]
                    .as_ic()
                    .expect("Tgd violation indexes a form-(1) constraint");
                let mut assigns = Vec::new();
                for (i, b) in bindings.iter().enumerate() {
                    if let Some(v) = b {
                        assigns.push(format!("{}={}", ic.var_name(VarId(i as u32)), v));
                    }
                }
                let atoms: Vec<String> = body_atoms
                    .iter()
                    .map(|a| a.display(schema).to_string())
                    .collect();
                format!(
                    "{name} violated by {} with {{{}}}",
                    atoms.join(", "),
                    assigns.join(", ")
                )
            }
            ViolationKind::NotNull { atom, position } => format!(
                "{name} violated: {} has null at position {}",
                atom.display(schema),
                position + 1
            ),
        }
    }
}

/// All violations of `ics` in `instance` under `mode`, in deterministic
/// order (constraint order, then body-join order).
///
/// Joins are index-probed ([`crate::incremental`]) but enumerate matches in
/// exactly the order of the retained naive evaluator
/// ([`violations_naive`]), which the property suite uses as an oracle.
pub fn violations(instance: &Instance, ics: &IcSet, mode: SatMode) -> Vec<Violation> {
    let mut out = Vec::new();
    let _ = for_each_violation_indexed(instance, ics, mode, |v| {
        out.push(v);
        ControlFlow::<()>::Continue(())
    });
    out
}

/// First violation, if any, via index-probed joins.
pub fn first_violation(instance: &Instance, ics: &IcSet, mode: SatMode) -> Option<Violation> {
    match for_each_violation_indexed(instance, ics, mode, ControlFlow::Break) {
        ControlFlow::Break(v) => Some(v),
        ControlFlow::Continue(()) => None,
    }
}

/// All violations by the naive nested-loop evaluator: full relation scans,
/// no indexes. Retained as the cross-check oracle for the indexed and
/// incremental paths; use [`violations`] everywhere else.
pub fn violations_naive(instance: &Instance, ics: &IcSet, mode: SatMode) -> Vec<Violation> {
    let mut out = Vec::new();
    let _ = for_each_violation(instance, ics, mode, |v| {
        out.push(v);
        ControlFlow::<()>::Continue(())
    });
    out
}

fn for_each_violation_indexed<B>(
    instance: &Instance,
    ics: &IcSet,
    mode: SatMode,
    mut f: impl FnMut(Violation) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for (index, constraint) in ics.constraints().iter().enumerate() {
        match constraint {
            crate::ast::Constraint::Tgd(ic) => {
                crate::incremental::tgd_violations_indexed(
                    instance,
                    ic,
                    mode,
                    &mut |bindings, atoms| {
                        f(Violation {
                            constraint_index: index,
                            kind: ViolationKind::Tgd {
                                bindings: bindings.to_vec(),
                                body_atoms: atoms,
                            },
                        })
                    },
                )?;
            }
            crate::ast::Constraint::NotNull(nnc) => {
                // Probe the index bucket of `null` at the guarded column
                // instead of scanning the relation; bucket order equals
                // scan order.
                let ix = instance.index_on(nnc.rel, nnc.position);
                for t in ix.probe(&Value::Null) {
                    f(Violation {
                        constraint_index: index,
                        kind: ViolationKind::NotNull {
                            atom: DatabaseAtom::new(nnc.rel, t.clone()),
                            position: nnc.position,
                        },
                    })?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// `D |=_N IC` — no violations under the paper's semantics.
pub fn is_consistent(instance: &Instance, ics: &IcSet) -> bool {
    first_violation(instance, ics, SatMode::NullAware).is_none()
}

/// Violations plus a convenience consistency flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Every violation found.
    pub violations: Vec<Violation>,
}

impl ConsistencyReport {
    /// `true` iff no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Full consistency check, collecting all violations.
pub fn check_instance(instance: &Instance, ics: &IcSet, mode: SatMode) -> ConsistencyReport {
    ConsistencyReport {
        violations: violations(instance, ics, mode),
    }
}

/// Would inserting `tuple` into `relation` keep the instance consistent?
/// Mirrors the DBMS behaviour discussed in Examples 5 and 6: the insertion
/// is checked against `|=_N`.
///
/// Routed through the delta API: the hypothetical instance is a
/// copy-on-write fork (reference-count bumps, not an O(data) clone), the
/// *new* violations are found by seeded matching on the inserted atom only
/// ([`crate::incremental::violations_touching`]), and the full check runs
/// only when the insertion itself is clean — at which point any remaining
/// violation predates the insertion.
pub fn insertion_allowed(
    instance: &Instance,
    ics: &IcSet,
    relation: &str,
    tuple: impl Into<cqa_relational::Tuple>,
) -> bool {
    let tuple = tuple.into();
    let Ok(rel) = instance.schema().require(relation) else {
        return false;
    };
    let mut fork = instance.clone();
    if fork.insert(rel, tuple.clone()).is_err() {
        return false;
    }
    let delta = cqa_relational::Delta::insertion(cqa_relational::DatabaseAtom::new(rel, tuple));
    if !crate::incremental::violations_touching(&fork, ics, &delta, SatMode::NullAware).is_empty() {
        return false;
    }
    is_consistent(&fork, ics)
}

fn for_each_violation<B>(
    instance: &Instance,
    ics: &IcSet,
    mode: SatMode,
    mut f: impl FnMut(Violation) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for (index, constraint) in ics.constraints().iter().enumerate() {
        match constraint {
            crate::ast::Constraint::Tgd(ic) => {
                tgd_violations(instance, ic, mode, &mut |bindings, atoms| {
                    f(Violation {
                        constraint_index: index,
                        kind: ViolationKind::Tgd {
                            bindings: bindings.to_vec(),
                            body_atoms: atoms.to_vec(),
                        },
                    })
                })?;
            }
            crate::ast::Constraint::NotNull(nnc) => {
                nnc_violations(instance, nnc, &mut |atom| {
                    f(Violation {
                        constraint_index: index,
                        kind: ViolationKind::NotNull {
                            atom,
                            position: nnc.position,
                        },
                    })
                })?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn nnc_violations<B>(
    instance: &Instance,
    nnc: &Nnc,
    f: &mut impl FnMut(DatabaseAtom) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for t in instance.relation(nnc.rel) {
        if t.get(nnc.position).is_null() {
            f(DatabaseAtom::new(nnc.rel, t.clone()))?;
        }
    }
    ControlFlow::Continue(())
}

/// Enumerate the violating ground instantiations of one form-(1)
/// constraint.
fn tgd_violations<B>(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    f: &mut impl FnMut(&[Option<Value>], &[DatabaseAtom]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for_each_body_match(instance, ic, &mut |bindings, atoms| {
        if !ground_satisfied(instance, ic, mode, bindings) {
            f(bindings, atoms)?;
        }
        ControlFlow::Continue(())
    })
}

/// Enumerate every full assignment of the body variables against the
/// instance (null joined as an ordinary constant), calling `f` with the
/// bindings and the matched ground body atoms.
fn for_each_body_match<B>(
    instance: &Instance,
    ic: &Ic,
    f: &mut impl FnMut(&[Option<Value>], &[DatabaseAtom]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    let mut atoms: Vec<DatabaseAtom> = Vec::with_capacity(ic.body().len());
    join_body(instance, ic, 0, &mut bindings, &mut atoms, f)
}

fn join_body<B>(
    instance: &Instance,
    ic: &Ic,
    depth: usize,
    bindings: &mut Vec<Option<Value>>,
    atoms: &mut Vec<DatabaseAtom>,
    f: &mut impl FnMut(&[Option<Value>], &[DatabaseAtom]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if depth == ic.body().len() {
        return f(bindings, atoms);
    }
    let atom = &ic.body()[depth];
    'tuples: for t in instance.relation(atom.rel) {
        let mut newly_bound: Vec<VarId> = Vec::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            let val = t.get(pos);
            match term {
                Term::Const(c) => {
                    if val != c {
                        undo(bindings, &newly_bound);
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match &bindings[v.index()] {
                    Some(bound) => {
                        // null joins null: Definition 4 evaluates ψ^N with
                        // null as an ordinary constant (Example 12).
                        if bound != val {
                            undo(bindings, &newly_bound);
                            continue 'tuples;
                        }
                    }
                    None => {
                        bindings[v.index()] = Some(*val);
                        newly_bound.push(*v);
                    }
                },
            }
        }
        atoms.push(DatabaseAtom::new(atom.rel, t.clone()));
        let res = join_body(instance, ic, depth + 1, bindings, atoms, f);
        atoms.pop();
        undo(bindings, &newly_bound);
        res?;
    }
    ControlFlow::Continue(())
}

fn undo(bindings: &mut [Option<Value>], vars: &[VarId]) {
    for v in vars {
        bindings[v.index()] = None;
    }
}

/// Is the ground constraint (under a full body assignment) satisfied?
fn ground_satisfied(
    instance: &Instance,
    ic: &Ic,
    mode: SatMode,
    bindings: &[Option<Value>],
) -> bool {
    // 1. IsNull escape (NullAware only): a relevant universal variable
    //    bound to null satisfies the constraint outright.
    if mode == SatMode::NullAware {
        for v in ic.relevant().escape_vars() {
            if matches!(bindings[v.index()], Some(Value::Null)) {
                return true;
            }
        }
    }
    // 2. ϕ escape: some builtin disjunct true.
    if phi_escape(ic, bindings) {
        return true;
    }
    // 3. Head witness.
    for atom in ic.head() {
        if head_witness(instance, ic, atom, mode, bindings) {
            return true;
        }
    }
    false
}

/// Does some disjunct of ϕ evaluate to true under the assignment?
pub(crate) fn phi_escape(ic: &Ic, bindings: &[Option<Value>]) -> bool {
    ic.builtins().iter().any(|b| {
        b.op.eval(term_value(&b.lhs, bindings), term_value(&b.rhs, bindings))
    })
}

pub(crate) fn term_value<'a>(term: &'a Term, bindings: &'a [Option<Value>]) -> &'a Value {
    match term {
        Term::Const(c) => c,
        Term::Var(v) => bindings[v.index()]
            .as_ref()
            .expect("builtin variables are body variables, bound at check time"),
    }
}

/// Does some tuple of `atom.rel` witness the head atom under the
/// assignment? Matching is restricted to relevant positions in
/// `NullAware` mode (the `Q^{A(ψ)}` of formula (4)); existential variables
/// occurring more than once must match consistently within the atom.
pub(crate) fn head_witness(
    instance: &Instance,
    ic: &Ic,
    atom: &IcAtom,
    mode: SatMode,
    bindings: &[Option<Value>],
) -> bool {
    'tuples: for t in instance.relation(atom.rel) {
        let mut local: BTreeMap<VarId, &Value> = BTreeMap::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            let checked = match mode {
                SatMode::NullAware => ic.relevant().is_relevant(atom.rel, pos),
                SatMode::Classical => true,
            };
            if !checked {
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
                        if bound != val {
                            continue 'tuples;
                        }
                    } else {
                        // existential: bind locally, consistently.
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

/// Literal Definition 4: build `D^{A(ψ)}` and evaluate `ψ^N` on it.
/// Used as a cross-check for the direct evaluator.
pub fn satisfies_via_projection(instance: &Instance, ic: &Ic) -> bool {
    // Projected relations, one per relation mentioned by ψ.
    let mut projected: BTreeMap<cqa_relational::RelId, Vec<Vec<Value>>> = BTreeMap::new();
    for rel in ic.relations() {
        let rows = ic
            .relevant()
            .project_relation(instance, rel)
            .into_iter()
            .map(|t| t.values().to_vec())
            .collect();
        projected.insert(rel, rows);
    }
    // Projected atoms: (rel, terms at kept positions).
    let shrink = |atom: &IcAtom| -> (cqa_relational::RelId, Vec<Term>) {
        let kept = ic.relevant().kept_positions(atom.rel);
        (
            atom.rel,
            kept.iter().map(|&p| atom.terms[p].clone()).collect(),
        )
    };
    let body: Vec<_> = ic.body().iter().map(&shrink).collect();
    let head: Vec<_> = ic.head().iter().map(&shrink).collect();

    // Enumerate assignments over the projected body.
    let mut bindings: Vec<Option<Value>> = vec![None; ic.var_count()];
    fn rec(
        ic: &Ic,
        projected: &BTreeMap<cqa_relational::RelId, Vec<Vec<Value>>>,
        body: &[(cqa_relational::RelId, Vec<Term>)],
        head: &[(cqa_relational::RelId, Vec<Term>)],
        depth: usize,
        bindings: &mut Vec<Option<Value>>,
    ) -> bool {
        if depth == body.len() {
            // ψ^N consequent: IsNull escapes ∨ projected head atoms ∨ ϕ.
            for v in ic.relevant().escape_vars() {
                if matches!(bindings[v.index()], Some(Value::Null)) {
                    return true;
                }
            }
            for b in ic.builtins() {
                if b.op
                    .eval(term_value(&b.lhs, bindings), term_value(&b.rhs, bindings))
                {
                    return true;
                }
            }
            'atoms: for (rel, terms) in head {
                'rows: for row in &projected[rel] {
                    let mut local: BTreeMap<VarId, &Value> = BTreeMap::new();
                    for (val, term) in row.iter().zip(terms) {
                        match term {
                            Term::Const(c) => {
                                if val != c {
                                    continue 'rows;
                                }
                            }
                            Term::Var(v) => {
                                if let Some(bound) = &bindings[v.index()] {
                                    if bound != val {
                                        continue 'rows;
                                    }
                                } else {
                                    match local.get(v) {
                                        Some(prev) => {
                                            if *prev != val {
                                                continue 'rows;
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
                continue 'atoms;
            }
            return false;
        }
        let (rel, terms) = &body[depth];
        'rows: for row in &projected[rel] {
            let mut newly: Vec<VarId> = Vec::new();
            for (val, term) in row.iter().zip(terms) {
                match term {
                    Term::Const(c) => {
                        if val != c {
                            undo(bindings, &newly);
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => match &bindings[v.index()] {
                        Some(bound) => {
                            if bound != val {
                                undo(bindings, &newly);
                                continue 'rows;
                            }
                        }
                        None => {
                            bindings[v.index()] = Some(*val);
                            newly.push(*v);
                        }
                    },
                }
            }
            let ok = rec(ic, projected, body, head, depth + 1, bindings);
            undo(bindings, &newly);
            if !ok {
                return false;
            }
        }
        true
    }
    rec(ic, &projected, &body, &head, 0, &mut bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{c, v, CmpOp, Constraint, Ic, IcSet, Nnc};
    use cqa_relational::{i, null, s, Instance, Schema};
    use std::sync::Arc;

    fn build(schema: &Schema, rows: &[(&str, Vec<Value>)]) -> Instance {
        let mut d = Instance::empty(Arc::new(schema.clone()));
        for (rel, vals) in rows {
            d.insert_named(rel, cqa_relational::Tuple::new(vals.clone()))
                .unwrap();
        }
        d
    }

    #[test]
    fn example11_consistent_database() {
        // ICs: (a) P(x,y,z) → R(x,y); (b) T(x) → ∃yz P(x,y,z).
        let schema = Schema::builder()
            .relation("P", ["A", "B", "C"])
            .relation("R", ["D", "E"])
            .relation("T", ["F"])
            .finish()
            .unwrap();
        let a = Ic::builder(&schema, "a")
            .body_atom("P", [v("x"), v("y"), v("z")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let b = Ic::builder(&schema, "b")
            .body_atom("T", [v("x")])
            .head_atom("P", [v("x"), v("y"), v("z")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(a.clone()), Constraint::from(b.clone())]);
        let d = build(
            &schema,
            &[
                ("P", vec![s("a"), s("d"), s("e")]),
                ("P", vec![s("b"), null(), s("g")]),
                ("R", vec![s("a"), s("d")]),
                ("T", vec![s("b")]),
            ],
        );
        assert!(is_consistent(&d, &ics));
        assert!(satisfies_via_projection(&d, &a));
        assert!(satisfies_via_projection(&d, &b));

        // Adding P(f, d, null) breaks constraint (a):
        let mut d2 = d.clone();
        d2.insert_named("P", [s("f"), s("d"), null()]).unwrap();
        assert!(!is_consistent(&d2, &ics));
        assert!(!satisfies_via_projection(&d2, &a));
        let viols = violations(&d2, &ics, SatMode::NullAware);
        assert_eq!(viols.len(), 1);
        assert_eq!(viols[0].constraint_index, 0);
        assert!(!insertion_allowed(&d, &ics, "P", [s("f"), s("d"), null()]));
    }

    #[test]
    fn example12_join_through_null() {
        // ψ: P1(x,y,w) ∧ P2(y,z) → ∃u Q(x,z,u); D from the paper satisfies ψ.
        let schema = Schema::builder()
            .relation("P1", ["A", "B", "C"])
            .relation("P2", ["D", "E"])
            .relation("Q", ["F", "G", "H"])
            .finish()
            .unwrap();
        let psi = Ic::builder(&schema, "psi")
            .body_atom("P1", [v("x"), v("y"), v("w")])
            .body_atom("P2", [v("y"), v("z")])
            .head_atom("Q", [v("x"), v("z"), v("u")])
            .finish()
            .unwrap();
        let d = build(
            &schema,
            &[
                ("P1", vec![s("a"), s("b"), s("c")]),
                ("P1", vec![s("d"), null(), s("c")]),
                ("P1", vec![s("b"), s("e"), null()]),
                ("P1", vec![null(), s("b"), s("b")]),
                ("P2", vec![s("b"), s("a")]),
                ("P2", vec![s("e"), s("c")]),
                ("P2", vec![s("d"), null()]),
                ("P2", vec![null(), s("b")]),
                ("Q", vec![s("a"), s("a"), s("c")]),
                ("Q", vec![s("b"), null(), s("c")]),
                ("Q", vec![s("b"), s("c"), s("d")]),
                ("Q", vec![null(), s("c"), s("a")]),
            ],
        );
        let ics = IcSet::new([Constraint::from(psi.clone())]);
        assert!(is_consistent(&d, &ics));
        assert!(satisfies_via_projection(&d, &psi));
    }

    #[test]
    fn example13_null_witness_counts() {
        // ψ: P(x,y) → ∃z Q(x,z,z); D = {P(a,b), P(null,c), Q(a,null,null)}.
        let schema = Schema::builder()
            .relation("P", ["A", "B"])
            .relation("Q", ["X", "Y", "Z"])
            .finish()
            .unwrap();
        let psi = Ic::builder(&schema, "psi")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("Q", [v("x"), v("z"), v("z")])
            .finish()
            .unwrap();
        let d = build(
            &schema,
            &[
                ("P", vec![s("a"), s("b")]),
                ("P", vec![null(), s("c")]),
                ("Q", vec![s("a"), null(), null()]),
            ],
        );
        let ics = IcSet::new([Constraint::from(psi.clone())]);
        assert!(is_consistent(&d, &ics));
        assert!(satisfies_via_projection(&d, &psi));
        // But Q(a, null, b) would NOT witness (z must repeat consistently):
        let mut d2 = build(
            &schema,
            &[
                ("P", vec![s("a"), s("b")]),
                ("Q", vec![s("a"), null(), s("b")]),
            ],
        );
        assert!(!is_consistent(&d2, &ics));
        d2.insert_named("Q", [s("a"), s("d"), s("d")]).unwrap();
        assert!(is_consistent(&d2, &ics));
    }

    #[test]
    fn example6_check_constraint() {
        // Emp(id,name,salary) → salary > 100.
        let schema = Schema::builder()
            .relation("Emp", ["ID", "Name", "Salary"])
            .finish()
            .unwrap();
        let chk = Ic::builder(&schema, "chk")
            .body_atom("Emp", [v("i"), v("n"), v("sal")])
            .builtin(v("sal"), CmpOp::Gt, c(100))
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(chk)]);
        let d = build(
            &schema,
            &[
                ("Emp", vec![i(32), null(), i(1000)]),
                ("Emp", vec![i(41), s("Paul"), null()]),
            ],
        );
        assert!(is_consistent(&d, &ics)); // null salary escapes
        assert!(!insertion_allowed(&d, &ics, "Emp", [i(32), null(), i(50)]));
    }

    #[test]
    fn example8_multirow_check() {
        // Person(x,y,z,w) ∧ Person(z,s,t,u) → u > w + 15 is approximated in
        // our builtin language as u > w (the paper's arithmetic is richer;
        // shape is identical): null age escapes.
        let schema = Schema::builder()
            .relation("Person", ["Name", "Dad", "Mom", "Age"])
            .finish()
            .unwrap();
        let chk = Ic::builder(&schema, "age")
            .body_atom("Person", [v("x"), v("y"), v("z"), v("w")])
            .body_atom("Person", [v("z"), v("s"), v("t"), v("u")])
            .builtin(v("u"), CmpOp::Gt, v("w"))
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(chk)]);
        let d = build(
            &schema,
            &[
                ("Person", vec![s("Lee"), s("Rod"), s("Mary"), i(27)]),
                ("Person", vec![s("Rod"), s("Joe"), s("Tess"), i(55)]),
                ("Person", vec![s("Mary"), s("Adam"), s("Ann"), null()]),
            ],
        );
        assert!(is_consistent(&d, &ics));
    }

    #[test]
    fn example9_null_in_referenced_attrs_is_no_witness() {
        // Course(x,y,z) → Employee(y,z); Employee(W04, null) does not
        // witness (W04, 34): inconsistent.
        let schema = Schema::builder()
            .relation("Course", ["Code", "Term", "ID"])
            .relation("Employee", ["Term", "ID"])
            .finish()
            .unwrap();
        let uic = Ic::builder(&schema, "ref")
            .body_atom("Course", [v("x"), v("y"), v("z")])
            .head_atom("Employee", [v("y"), v("z")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(uic.clone())]);
        let d = build(
            &schema,
            &[
                ("Course", vec![s("CS18"), s("W04"), i(34)]),
                ("Employee", vec![s("W04"), null()]),
            ],
        );
        assert!(!is_consistent(&d, &ics));
        assert!(!satisfies_via_projection(&d, &uic));
    }

    #[test]
    fn nnc_violations_found_classically() {
        let schema = Schema::builder()
            .relation("R", ["x", "y"])
            .finish()
            .unwrap();
        let nnc = Nnc::new(&schema, "nn", "R", 0).unwrap();
        let ics = IcSet::new([Constraint::from(nnc)]);
        let d = build(
            &schema,
            &[("R", vec![null(), s("a")]), ("R", vec![s("b"), null()])],
        );
        let viols = violations(&d, &ics, SatMode::NullAware);
        assert_eq!(viols.len(), 1);
        match &viols[0].kind {
            ViolationKind::NotNull { atom, position } => {
                assert_eq!(*position, 0);
                assert!(atom.tuple.get(0).is_null());
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn classical_mode_has_no_escapes() {
        // P(x,y) → R(x): with P(b, null) classical requires R(b)… and with
        // P(null, a) classical requires R(null).
        let schema = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&schema, "ic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        let d = build(&schema, &[("P", vec![null(), s("a")])]);
        assert!(is_consistent(&d, &ics)); // null-aware: x is relevant & null
        assert_eq!(violations(&d, &ics, SatMode::Classical).len(), 1);
        // classical satisfied once R(null) exists (null as ordinary constant)
        let mut d2 = d.clone();
        d2.insert_named("R", [null()]).unwrap();
        assert!(violations(&d2, &ics, SatMode::Classical).is_empty());
    }

    #[test]
    fn non_relevant_null_does_not_escape() {
        // The semantics of [10] would accept {P(b, null)} wrt P(x,y) → R(x);
        // Definition 4 does not (remark after Definition 4).
        let schema = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&schema, "ic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic.clone())]);
        let d = build(&schema, &[("P", vec![s("b"), null()])]);
        assert!(!is_consistent(&d, &ics));
        assert!(!satisfies_via_projection(&d, &ic));
    }

    #[test]
    fn violation_display_mentions_constraint_and_values() {
        let schema = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&schema, "myic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        let d = build(&schema, &[("P", vec![s("b"), s("c")])]);
        let viols = violations(&d, &ics, SatMode::NullAware);
        let text = viols[0].display(&schema, &ics);
        assert!(text.contains("myic"));
        assert!(text.contains("P(b, c)"));
        assert!(text.contains("x=b"));
    }

    #[test]
    fn empty_database_satisfies_everything() {
        let schema = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&schema, "ic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let nnc = Nnc::new(&schema, "nn", "P", 0).unwrap();
        let ics = IcSet::new([Constraint::from(ic), Constraint::from(nnc)]);
        let d = Instance::empty(Arc::new(schema));
        assert!(is_consistent(&d, &ics));
    }
}
