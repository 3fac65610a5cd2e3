//! The constraint AST: the paper's general form (1) and NOT NULL
//! constraints (Definition 5).
//!
//! A form-(1) integrity constraint is
//!
//! ```text
//! ∀x̄ ( ⋀ᵢ₌₁..m Pᵢ(x̄ᵢ)  →  ∃z̄ ( ⋁ⱼ₌₁..n Qⱼ(ȳⱼ, z̄ⱼ) ∨ ϕ ) )
//! ```
//!
//! with `ȳⱼ ⊆ x̄`, `x̄ ∩ z̄ = ∅`, `z̄ᵢ ∩ z̄ⱼ = ∅` for `i ≠ j`, `m ≥ 1`, and ϕ a
//! disjunction of builtin comparison atoms over body variables. Constants
//! other than `null` may replace variables anywhere.

use crate::error::ConstraintError;
use crate::relevant::RelevantAttrs;
use cqa_relational::{BodyAtom, RelId, Schema, Slot, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Variable identifier, dense within one [`Ic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term of a constraint atom: variable or (non-null) constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable, resolved against the owning constraint's table.
    Var(VarId),
    /// A constant of the domain (never `null`; validation enforces this).
    Const(Value),
}

impl Term {
    /// The variable id, if this term is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

/// A database-predicate atom `R(t₁, …, t_k)` inside a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcAtom {
    /// The relation.
    pub rel: RelId,
    /// Terms, one per attribute.
    pub terms: Vec<Term>,
}

impl IcAtom {
    /// Variables occurring in this atom (with repetitions collapsed).
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }
}

impl BodyAtom for IcAtom {
    fn source(&self) -> usize {
        self.rel.index()
    }

    fn arity(&self) -> usize {
        self.terms.len()
    }

    fn term(&self, pos: usize) -> Slot {
        match &self.terms[pos] {
            Term::Var(v) => Slot::Var(v.index()),
            Term::Const(c) => Slot::Const(*c),
        }
    }
}

/// Comparison operators of the builtin predicate set `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Neq,
    /// `<`
    Lt,
    /// `≤`
    Leq,
    /// `>`
    Gt,
    /// `≥`
    Geq,
}

impl CmpOp {
    /// Evaluate the comparison on two values, treating `null` as an
    /// ordinary constant (Definition 4's classical evaluation). The total
    /// order on [`Value`] (`Null < Int < Str`) backs the inequalities.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Neq => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Leq => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Geq => lhs >= rhs,
        }
    }

    /// The complementary operator (used to negate ϕ when generating repair
    /// programs: `ϕ̄` is the conjunction of complements).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Geq,
            CmpOp::Leq => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Leq,
            CmpOp::Geq => CmpOp::Lt,
        }
    }

    /// Symbol for pretty printing.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Leq => "<=",
            CmpOp::Gt => ">",
            CmpOp::Geq => ">=",
        }
    }
}

/// A builtin comparison atom, one disjunct of ϕ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Builtin {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left term.
    pub lhs: Term,
    /// Right term.
    pub rhs: Term,
}

/// A validated form-(1) integrity constraint.
///
/// Built through [`Ic::builder`]; construction computes and caches the
/// classification-relevant metadata: universal/existential variable sets
/// and the relevant attributes `A(ψ)` of Definition 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ic {
    name: String,
    var_names: Vec<String>,
    body: Vec<IcAtom>,
    head: Vec<IcAtom>,
    builtins: Vec<Builtin>,
    universal: BTreeSet<VarId>,
    existential: BTreeSet<VarId>,
    relevant: RelevantAttrs,
}

impl Ic {
    /// Start building a constraint against `schema`.
    pub fn builder(schema: &Schema, name: impl Into<String>) -> IcBuilder<'_> {
        IcBuilder::new(schema, name)
    }

    /// Constraint name (used in diagnostics and program generation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The antecedent atoms `Pᵢ(x̄ᵢ)`.
    pub fn body(&self) -> &[IcAtom] {
        &self.body
    }

    /// The consequent atoms `Qⱼ(ȳⱼ, z̄ⱼ)` (may be empty: denials, checks).
    pub fn head(&self) -> &[IcAtom] {
        &self.head
    }

    /// The disjuncts of ϕ (may be empty; an empty ϕ with an empty head is
    /// the always-false consequent of a denial constraint).
    pub fn builtins(&self) -> &[Builtin] {
        &self.builtins
    }

    /// Universally quantified variables `x̄` (= all body variables).
    pub fn universal_vars(&self) -> &BTreeSet<VarId> {
        &self.universal
    }

    /// Existentially quantified variables `z̄` (head variables not in the
    /// body).
    pub fn existential_vars(&self) -> &BTreeSet<VarId> {
        &self.existential
    }

    /// Is this variable existential?
    pub fn is_existential(&self, v: VarId) -> bool {
        self.existential.contains(&v)
    }

    /// The relevant attributes `A(ψ)` (Definition 2) plus derived views.
    pub fn relevant(&self) -> &RelevantAttrs {
        &self.relevant
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Every relation mentioned by the constraint (body and head).
    pub fn relations(&self) -> BTreeSet<RelId> {
        self.body
            .iter()
            .chain(self.head.iter())
            .map(|a| a.rel)
            .collect()
    }

    /// Render with relation names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> IcDisplay<'a> {
        IcDisplay { ic: self, schema }
    }
}

/// Pretty printer for a constraint, e.g.
/// `P(x, y) -> exists z: Q(x, z) | y > 3`.
pub struct IcDisplay<'a> {
    ic: &'a Ic,
    schema: &'a Schema,
}

impl fmt::Display for IcDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ic = self.ic;
        let term = |t: &Term| -> String {
            match t {
                Term::Var(v) => ic.var_name(*v).to_string(),
                Term::Const(c) => match c {
                    Value::Sym(s) => format!("'{s}'"),
                    other => other.to_string(),
                },
            }
        };
        let atom = |a: &IcAtom| -> String {
            let args: Vec<String> = a.terms.iter().map(term).collect();
            format!(
                "{}({})",
                self.schema.relation(a.rel).name(),
                args.join(", ")
            )
        };
        let body: Vec<String> = ic.body.iter().map(&atom).collect();
        write!(f, "{}", body.join(", "))?;
        write!(f, " -> ")?;
        if !ic.existential.is_empty() {
            let ex: Vec<&str> = ic.existential.iter().map(|v| ic.var_name(*v)).collect();
            write!(f, "exists {}: ", ex.join(", "))?;
        }
        let mut parts: Vec<String> = ic.head.iter().map(&atom).collect();
        for b in &ic.builtins {
            parts.push(format!(
                "{} {} {}",
                term(&b.lhs),
                b.op.symbol(),
                term(&b.rhs)
            ));
        }
        if parts.is_empty() {
            write!(f, "false")
        } else {
            write!(f, "{}", parts.join(" | "))
        }
    }
}

/// A NOT NULL constraint (Definition 5):
/// `∀x̄ (P(x̄) ∧ IsNull(xᵢ) → false)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nnc {
    /// Constraint name.
    pub name: String,
    /// The constrained relation.
    pub rel: RelId,
    /// 0-based attribute position that must not be null.
    pub position: usize,
}

impl Nnc {
    /// Build a NOT NULL constraint, validating the position.
    pub fn new(
        schema: &Schema,
        name: impl Into<String>,
        relation: &str,
        position: usize,
    ) -> Result<Self, ConstraintError> {
        let rel = schema
            .rel_id(relation)
            .ok_or_else(|| ConstraintError::UnknownRelation(relation.to_string()))?;
        let arity = schema.relation(rel).arity();
        if position >= arity {
            return Err(ConstraintError::NncPositionOutOfRange {
                relation: relation.to_string(),
                position,
                arity,
            });
        }
        Ok(Nnc {
            name: name.into(),
            rel,
            position,
        })
    }
}

/// A constraint of either syntactic class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// A form-(1) constraint.
    Tgd(Ic),
    /// A NOT NULL constraint.
    NotNull(Nnc),
}

impl Constraint {
    /// Constraint name.
    pub fn name(&self) -> &str {
        match self {
            Constraint::Tgd(ic) => ic.name(),
            Constraint::NotNull(n) => &n.name,
        }
    }

    /// The inner [`Ic`], if this is a form-(1) constraint.
    pub fn as_ic(&self) -> Option<&Ic> {
        match self {
            Constraint::Tgd(ic) => Some(ic),
            Constraint::NotNull(_) => None,
        }
    }

    /// The inner [`Nnc`], if this is a NOT NULL constraint.
    pub fn as_nnc(&self) -> Option<&Nnc> {
        match self {
            Constraint::NotNull(n) => Some(n),
            Constraint::Tgd(_) => None,
        }
    }
}

impl From<Ic> for Constraint {
    fn from(ic: Ic) -> Self {
        Constraint::Tgd(ic)
    }
}

impl From<Nnc> for Constraint {
    fn from(n: Nnc) -> Self {
        Constraint::NotNull(n)
    }
}

/// A fixed finite set `IC` of constraints, the unit the repair and program
/// layers operate on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IcSet {
    constraints: Vec<Constraint>,
}

impl IcSet {
    /// Build from any mix of [`Ic`] and [`Nnc`] values.
    pub fn new(constraints: impl IntoIterator<Item = Constraint>) -> Self {
        IcSet {
            constraints: constraints.into_iter().collect(),
        }
    }

    /// All constraints, in declaration order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The form-(1) constraints with their indices.
    pub fn ics(&self) -> impl Iterator<Item = (usize, &Ic)> {
        self.constraints
            .iter()
            .enumerate()
            .filter_map(|(i, con)| con.as_ic().map(|ic| (i, ic)))
    }

    /// The NOT NULL constraints with their indices.
    pub fn nncs(&self) -> impl Iterator<Item = (usize, &Nnc)> {
        self.constraints
            .iter()
            .enumerate()
            .filter_map(|(i, con)| con.as_nnc().map(|n| (i, n)))
    }

    /// Add a constraint.
    pub fn push(&mut self, c: impl Into<Constraint>) {
        self.constraints.push(c.into());
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` iff there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Constants occurring in the constraints, `const(IC)` of
    /// Proposition 1.
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for (_, ic) in self.ics() {
            for atom in ic.body().iter().chain(ic.head()) {
                for t in &atom.terms {
                    if let Term::Const(c) = t {
                        out.insert(*c);
                    }
                }
            }
            for b in ic.builtins() {
                for t in [&b.lhs, &b.rhs] {
                    if let Term::Const(c) = t {
                        out.insert(*c);
                    }
                }
            }
        }
        out
    }

    /// Pairs `(tgd-index, nnc-index)` where the NOT NULL constraint guards
    /// an attribute that is existentially quantified in the form-(1)
    /// constraint — the *conflicting* interactions of Example 20. Sets with
    /// no such pairs are *non-conflicting* (the paper's standing
    /// assumption).
    pub fn conflicting_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, ic) in self.ics() {
            for atom in ic.head() {
                for (pos, term) in atom.terms.iter().enumerate() {
                    let is_ex = term.as_var().map(|v| ic.is_existential(v)).unwrap_or(false);
                    if !is_ex {
                        continue;
                    }
                    for (j, nnc) in self.nncs() {
                        if nnc.rel == atom.rel && nnc.position == pos {
                            out.push((i, j));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `true` iff no NOT NULL constraint clashes with an existential
    /// position.
    pub fn is_non_conflicting(&self) -> bool {
        self.conflicting_pairs().is_empty()
    }
}

impl FromIterator<Constraint> for IcSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        IcSet::new(iter)
    }
}

/// A term spec used by builders before variable resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermSpec {
    /// A named variable.
    Var(String),
    /// A constant.
    Const(Value),
}

/// Shorthand for a named variable term.
pub fn v(name: impl Into<String>) -> TermSpec {
    TermSpec::Var(name.into())
}

/// Shorthand for a constant term.
pub fn c(value: impl Into<Value>) -> TermSpec {
    TermSpec::Const(value.into())
}

/// Builder for [`Ic`]. Variables are identified by name; ids are assigned
/// in first-occurrence order.
pub struct IcBuilder<'s> {
    schema: &'s Schema,
    name: String,
    var_ids: BTreeMap<String, VarId>,
    var_names: Vec<String>,
    body: Vec<IcAtom>,
    head: Vec<IcAtom>,
    builtins: Vec<Builtin>,
    error: Option<ConstraintError>,
}

impl<'s> IcBuilder<'s> {
    fn new(schema: &'s Schema, name: impl Into<String>) -> Self {
        IcBuilder {
            schema,
            name: name.into(),
            var_ids: BTreeMap::new(),
            var_names: Vec::new(),
            body: Vec::new(),
            head: Vec::new(),
            builtins: Vec::new(),
            error: None,
        }
    }

    fn resolve_term(&mut self, spec: TermSpec) -> Result<Term, ConstraintError> {
        match spec {
            TermSpec::Var(name) => {
                let next = VarId(self.var_names.len() as u32);
                let id = *self.var_ids.entry(name.clone()).or_insert_with(|| {
                    self.var_names.push(name);
                    next
                });
                Ok(Term::Var(id))
            }
            TermSpec::Const(val) => {
                if val.is_null() {
                    Err(ConstraintError::NullConstant(self.name.clone()))
                } else {
                    Ok(Term::Const(val))
                }
            }
        }
    }

    fn resolve_atom(
        &mut self,
        relation: &str,
        terms: Vec<TermSpec>,
    ) -> Result<IcAtom, ConstraintError> {
        let rel = self
            .schema
            .rel_id(relation)
            .ok_or_else(|| ConstraintError::UnknownRelation(relation.to_string()))?;
        let arity = self.schema.relation(rel).arity();
        if terms.len() != arity {
            return Err(ConstraintError::ArityMismatch {
                ic: self.name.clone(),
                relation: relation.to_string(),
                expected: arity,
                actual: terms.len(),
            });
        }
        let terms = terms
            .into_iter()
            .map(|t| self.resolve_term(t))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IcAtom { rel, terms })
    }

    /// Add an antecedent atom `Pᵢ(…)`.
    pub fn body_atom(mut self, relation: &str, terms: impl IntoIterator<Item = TermSpec>) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.resolve_atom(relation, terms.into_iter().collect()) {
            Ok(a) => self.body.push(a),
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Add a consequent atom `Qⱼ(…)`.
    pub fn head_atom(mut self, relation: &str, terms: impl IntoIterator<Item = TermSpec>) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.resolve_atom(relation, terms.into_iter().collect()) {
            Ok(a) => self.head.push(a),
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Add a disjunct of ϕ.
    pub fn builtin(mut self, lhs: TermSpec, op: CmpOp, rhs: TermSpec) -> Self {
        if self.error.is_some() {
            return self;
        }
        let resolved = self
            .resolve_term(lhs)
            .and_then(|l| self.resolve_term(rhs).map(|r| (l, r)));
        match resolved {
            Ok((lhs, rhs)) => self.builtins.push(Builtin { op, lhs, rhs }),
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Validate and finish the constraint.
    pub fn finish(self) -> Result<Ic, ConstraintError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.body.is_empty() {
            return Err(ConstraintError::EmptyBody(self.name));
        }
        let universal: BTreeSet<VarId> = self.body.iter().flat_map(|a| a.vars()).collect();
        // z̄ᵢ ∩ z̄ⱼ = ∅: an existential variable may occur in only one head
        // atom (repetitions inside that atom are allowed, cf. Example 13).
        let mut seen_in: BTreeMap<VarId, usize> = BTreeMap::new();
        let mut existential = BTreeSet::new();
        for (j, atom) in self.head.iter().enumerate() {
            for var in atom.vars() {
                if universal.contains(&var) {
                    continue;
                }
                existential.insert(var);
                if let Some(&owner) = seen_in.get(&var) {
                    if owner != j {
                        return Err(ConstraintError::SharedExistential {
                            ic: self.name,
                            var: self.var_names[var.index()].clone(),
                        });
                    }
                } else {
                    seen_in.insert(var, j);
                }
            }
        }
        // ϕ over body variables only.
        for b in &self.builtins {
            for t in [&b.lhs, &b.rhs] {
                if let Some(var) = t.as_var() {
                    if !universal.contains(&var) {
                        return Err(ConstraintError::BuiltinUsesNonBodyVar {
                            ic: self.name,
                            var: self.var_names[var.index()].clone(),
                        });
                    }
                }
            }
        }
        let relevant = RelevantAttrs::compute(
            &self.body,
            &self.head,
            &self.builtins,
            &universal,
            self.var_names.len(),
        );
        Ok(Ic {
            name: self.name,
            var_names: self.var_names,
            body: self.body,
            head: self.head,
            builtins: self.builtins,
            universal,
            existential,
            relevant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .relation("P", ["a", "b", "c"])
            .relation("R", ["x", "y"])
            .relation("S", ["s"])
            .finish()
            .unwrap()
    }

    #[test]
    fn example1_universal_constraint_builds() {
        // ∀xyzw (P(x,y,w) ∧ R(y,z) → S(x) ∨ (z ≠ 2 ∨ w ≤ y))  (adapted arity)
        let s = schema();
        let ic = Ic::builder(&s, "a")
            .body_atom("P", [v("x"), v("y"), v("w")])
            .body_atom("R", [v("y"), v("z")])
            .head_atom("S", [v("x")])
            .builtin(v("z"), CmpOp::Neq, c(2))
            .builtin(v("w"), CmpOp::Leq, v("y"))
            .finish()
            .unwrap();
        assert_eq!(ic.body().len(), 2);
        assert_eq!(ic.head().len(), 1);
        assert_eq!(ic.builtins().len(), 2);
        assert!(ic.existential_vars().is_empty());
        assert_eq!(ic.universal_vars().len(), 4);
    }

    #[test]
    fn example1_referential_constraint_builds() {
        // ∀xy (R(x,y) → ∃z P(x, y, z))
        let s = schema();
        let ic = Ic::builder(&s, "b")
            .body_atom("R", [v("x"), v("y")])
            .head_atom("P", [v("x"), v("y"), v("z")])
            .finish()
            .unwrap();
        assert_eq!(ic.existential_vars().len(), 1);
        assert!(ic.is_existential(VarId(2)));
    }

    #[test]
    fn empty_body_rejected() {
        let s = schema();
        let err = Ic::builder(&s, "bad").head_atom("S", [v("x")]).finish();
        assert!(matches!(err, Err(ConstraintError::EmptyBody(_))));
    }

    #[test]
    fn shared_existential_rejected() {
        // S(x) → ∃y (R(x,y) ∨ P(x,y,y)): y shared between two head atoms.
        let s = schema();
        let err = Ic::builder(&s, "bad")
            .body_atom("S", [v("x")])
            .head_atom("R", [v("x"), v("y")])
            .head_atom("P", [v("x"), v("y"), v("y")])
            .finish();
        assert!(matches!(
            err,
            Err(ConstraintError::SharedExistential { .. })
        ));
    }

    #[test]
    fn repeated_existential_within_one_atom_allowed() {
        // Example 13: P(x,y) → ∃z Q(x,z,z) — adapted to P/R arities.
        let s = schema();
        let ic = Ic::builder(&s, "ex13")
            .body_atom("R", [v("x"), v("y")])
            .head_atom("P", [v("x"), v("z"), v("z")])
            .finish()
            .unwrap();
        assert_eq!(ic.existential_vars().len(), 1);
    }

    #[test]
    fn builtin_over_existential_rejected() {
        let s = schema();
        let err = Ic::builder(&s, "bad")
            .body_atom("S", [v("x")])
            .head_atom("R", [v("x"), v("z")])
            .builtin(v("z"), CmpOp::Gt, c(0))
            .finish();
        assert!(matches!(
            err,
            Err(ConstraintError::BuiltinUsesNonBodyVar { .. })
        ));
    }

    #[test]
    fn null_constant_rejected() {
        let s = schema();
        let err = Ic::builder(&s, "bad")
            .body_atom("S", [c(Value::Null)])
            .finish();
        assert!(matches!(err, Err(ConstraintError::NullConstant(_))));
    }

    #[test]
    fn unknown_relation_and_arity_mismatch() {
        let s = schema();
        assert!(matches!(
            Ic::builder(&s, "bad").body_atom("Z", [v("x")]).finish(),
            Err(ConstraintError::UnknownRelation(_))
        ));
        assert!(matches!(
            Ic::builder(&s, "bad")
                .body_atom("S", [v("x"), v("y")])
                .finish(),
            Err(ConstraintError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn nnc_validation() {
        let s = schema();
        assert!(Nnc::new(&s, "n1", "R", 1).is_ok());
        assert!(matches!(
            Nnc::new(&s, "n2", "R", 2),
            Err(ConstraintError::NncPositionOutOfRange { .. })
        ));
        assert!(matches!(
            Nnc::new(&s, "n3", "Z", 0),
            Err(ConstraintError::UnknownRelation(_))
        ));
    }

    #[test]
    fn cmp_eval_and_negate() {
        use cqa_relational::{i, null};
        assert!(CmpOp::Eq.eval(&null(), &null())); // null as ordinary constant
        assert!(CmpOp::Lt.eval(&i(1), &i(2)));
        assert!(CmpOp::Lt.eval(&null(), &i(0))); // Null < Int in the total order
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Leq,
            CmpOp::Gt,
            CmpOp::Geq,
        ] {
            // negation complements on every pair drawn from a small set
            for a in [i(1), i(2), null()] {
                for b in [i(1), i(2), null()] {
                    assert_ne!(op.eval(&a, &b), op.negate().eval(&a, &b));
                }
            }
        }
    }

    #[test]
    fn conflicting_pairs_example20() {
        // RIC ∀x (S(x) → ∃y R(x,y)) with NNC on R[2] (position 1) conflicts.
        let s = schema();
        let ric = Ic::builder(&s, "ric")
            .body_atom("S", [v("x")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let nnc = Nnc::new(&s, "nnc", "R", 1).unwrap();
        let set = IcSet::new([Constraint::from(ric.clone()), Constraint::from(nnc)]);
        assert_eq!(set.conflicting_pairs(), vec![(0, 1)]);
        assert!(!set.is_non_conflicting());

        // NNC on the referencing (universal) position does not conflict.
        let nnc_ok = Nnc::new(&s, "nnc", "R", 0).unwrap();
        let set_ok = IcSet::new([Constraint::from(ric), Constraint::from(nnc_ok)]);
        assert!(set_ok.is_non_conflicting());
    }

    #[test]
    fn constants_collected() {
        let s = schema();
        let ic = Ic::builder(&s, "k")
            .body_atom("R", [v("x"), c(3)])
            .builtin(v("x"), CmpOp::Gt, c(10))
            .finish()
            .unwrap();
        let set = IcSet::new([Constraint::from(ic)]);
        let consts = set.constants();
        assert!(consts.contains(&Value::Int(3)));
        assert!(consts.contains(&Value::Int(10)));
        assert_eq!(consts.len(), 2);
    }

    #[test]
    fn display_renders_paper_like_syntax() {
        let s = schema();
        let ic = Ic::builder(&s, "d")
            .body_atom("R", [v("x"), v("y")])
            .head_atom("P", [v("x"), v("y"), v("z")])
            .builtin(v("y"), CmpOp::Gt, c(3))
            .finish()
            .unwrap();
        assert_eq!(
            ic.display(&s).to_string(),
            "R(x, y) -> exists z: P(x, y, z) | y > 3"
        );
        let denial = Ic::builder(&s, "den")
            .body_atom("S", [v("x")])
            .finish()
            .unwrap();
        assert_eq!(denial.display(&s).to_string(), "S(x) -> false");
    }
}
