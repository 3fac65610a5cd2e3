//! Non-ground program syntax: predicates, rules, literals, builders.

use crate::error::AspError;
use cqa_relational::{BodyAtom, Slot, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Predicate identifier, dense within one [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl PredId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term of a rule: rule-local variable or constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// Rule-local variable index.
    Var(u32),
    /// Constant.
    Const(Value),
}

/// Builtin comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BuiltinOp {
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

impl BuiltinOp {
    /// Evaluate over the total order on [`Value`] (null as ordinary
    /// constant — exactly what the repair programs need for `x ≠ null`).
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            BuiltinOp::Eq => l == r,
            BuiltinOp::Neq => l != r,
            BuiltinOp::Lt => l < r,
            BuiltinOp::Leq => l <= r,
            BuiltinOp::Gt => l > r,
            BuiltinOp::Geq => l >= r,
        }
    }

    /// Printable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BuiltinOp::Eq => "=",
            BuiltinOp::Neq => "!=",
            BuiltinOp::Lt => "<",
            BuiltinOp::Leq => "<=",
            BuiltinOp::Gt => ">",
            BuiltinOp::Geq => ">=",
        }
    }
}

/// A resolved predicate atom inside a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleAtom {
    /// The predicate.
    pub pred: PredId,
    /// Terms, one per argument.
    pub terms: Vec<Term>,
}

impl BodyAtom for RuleAtom {
    fn source(&self) -> usize {
        self.pred.index()
    }

    fn arity(&self) -> usize {
        self.terms.len()
    }

    fn term(&self, pos: usize) -> Slot {
        match &self.terms[pos] {
            Term::Var(v) => Slot::Var(*v as usize),
            Term::Const(c) => Slot::Const(*c),
        }
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// Positive atom.
    Pos(RuleAtom),
    /// Default-negated atom (`not A`).
    Neg(RuleAtom),
    /// Builtin comparison.
    Cmp(BuiltinOp, Term, Term),
}

/// A resolved rule: `h₁ ∨ … ∨ hₙ ← body`. An empty head is a program
/// denial (integrity rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Disjunctive head atoms.
    pub head: Vec<RuleAtom>,
    /// Body literals (positives first is conventional but not required).
    pub body: Vec<Literal>,
    /// Variable names, indexed by `Term::Var`.
    pub var_names: Vec<String>,
}

/// Pre-resolution term spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermSpec {
    /// Named variable.
    Var(String),
    /// Constant.
    Const(Value),
}

/// Shorthand: a named variable.
pub fn tv(name: impl Into<String>) -> TermSpec {
    TermSpec::Var(name.into())
}

/// Shorthand: a constant.
pub fn tc(value: impl Into<Value>) -> TermSpec {
    TermSpec::Const(value.into())
}

/// Pre-resolution atom spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    /// Predicate name.
    pub pred: String,
    /// Arguments.
    pub args: Vec<TermSpec>,
}

/// Build an atom spec.
pub fn atom(pred: impl Into<String>, args: impl IntoIterator<Item = TermSpec>) -> AtomSpec {
    AtomSpec {
        pred: pred.into(),
        args: args.into_iter().collect(),
    }
}

/// Pre-resolution body literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyLit {
    /// Positive atom.
    Pos(AtomSpec),
    /// Negated atom.
    Neg(AtomSpec),
    /// Builtin comparison.
    Cmp(TermSpec, BuiltinOp, TermSpec),
}

/// Positive body literal.
pub fn pos(a: AtomSpec) -> BodyLit {
    BodyLit::Pos(a)
}

/// Negated body literal.
pub fn neg(a: AtomSpec) -> BodyLit {
    BodyLit::Neg(a)
}

/// Builtin body literal.
pub fn cmp(lhs: TermSpec, op: BuiltinOp, rhs: TermSpec) -> BodyLit {
    BodyLit::Cmp(lhs, op, rhs)
}

/// A non-ground disjunctive logic program: declared predicates, facts and
/// rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    pred_names: Vec<String>,
    pred_arity: Vec<usize>,
    by_name: BTreeMap<String, PredId>,
    facts: Vec<(PredId, Vec<Value>)>,
    rules: Vec<Rule>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Declare (or look up) a predicate, checking arity consistency.
    pub fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, AspError> {
        if let Some(&id) = self.by_name.get(name) {
            let declared = self.pred_arity[id.index()];
            if declared != arity {
                return Err(AspError::ArityConflict {
                    predicate: name.to_string(),
                    declared,
                    used: arity,
                });
            }
            return Ok(id);
        }
        let id = PredId(self.pred_names.len() as u32);
        self.pred_names.push(name.to_string());
        self.pred_arity.push(arity);
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up a predicate without declaring it.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.by_name.get(name).copied()
    }

    /// Predicate name.
    pub fn pred_name(&self, id: PredId) -> &str {
        &self.pred_names[id.index()]
    }

    /// Predicate arity.
    pub fn pred_arity(&self, id: PredId) -> usize {
        self.pred_arity[id.index()]
    }

    /// Number of predicates.
    pub fn pred_count(&self) -> usize {
        self.pred_names.len()
    }

    /// Add a ground fact.
    pub fn fact(
        &mut self,
        pred: impl Into<String>,
        args: impl IntoIterator<Item = Value>,
    ) -> Result<(), AspError> {
        let args: Vec<Value> = args.into_iter().collect();
        let name = pred.into();
        let id = self.pred(&name, args.len())?;
        self.facts.push((id, args));
        Ok(())
    }

    /// The facts.
    pub fn facts(&self) -> &[(PredId, Vec<Value>)] {
        &self.facts
    }

    /// Remove the first fact equal to `(pred, args)` (multiset removal).
    /// Returns whether a fact was removed. The predicate declaration is
    /// retained.
    pub fn remove_fact(&mut self, pred: PredId, args: &[Value]) -> bool {
        match self
            .facts
            .iter()
            .position(|(p, a)| *p == pred && a.as_slice() == args)
        {
            Some(at) => {
                self.facts.remove(at);
                true
            }
            None => false,
        }
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Add a rule `head ← body`, resolving names and checking safety:
    /// every variable occurring in the head, in a negated literal or in a
    /// builtin must also occur in a positive body atom.
    pub fn rule(
        &mut self,
        head: impl IntoIterator<Item = AtomSpec>,
        body: impl IntoIterator<Item = BodyLit>,
    ) -> Result<(), AspError> {
        let mut vars: BTreeMap<String, u32> = BTreeMap::new();
        let mut var_names: Vec<String> = Vec::new();
        let mut resolve_term = |spec: &TermSpec| -> Term {
            match spec {
                TermSpec::Var(n) => {
                    let next = var_names.len() as u32;
                    let id = *vars.entry(n.clone()).or_insert_with(|| {
                        var_names.push(n.clone());
                        next
                    });
                    Term::Var(id)
                }
                TermSpec::Const(v) => Term::Const(*v),
            }
        };
        let head_specs: Vec<AtomSpec> = head.into_iter().collect();
        let body_specs: Vec<BodyLit> = body.into_iter().collect();
        let mut head_atoms = Vec::with_capacity(head_specs.len());
        let mut body_lits = Vec::with_capacity(body_specs.len());
        for spec in &head_specs {
            let terms: Vec<Term> = spec.args.iter().map(&mut resolve_term).collect();
            let pred = self.pred(&spec.pred, terms.len())?;
            head_atoms.push(RuleAtom { pred, terms });
        }
        for lit in &body_specs {
            let resolved = match lit {
                BodyLit::Pos(a) => {
                    let terms: Vec<Term> = a.args.iter().map(&mut resolve_term).collect();
                    Literal::Pos(RuleAtom {
                        pred: self.pred(&a.pred, terms.len())?,
                        terms,
                    })
                }
                BodyLit::Neg(a) => {
                    let terms: Vec<Term> = a.args.iter().map(&mut resolve_term).collect();
                    Literal::Neg(RuleAtom {
                        pred: self.pred(&a.pred, terms.len())?,
                        terms,
                    })
                }
                BodyLit::Cmp(l, op, r) => Literal::Cmp(*op, resolve_term(l), resolve_term(r)),
            };
            body_lits.push(resolved);
        }
        let rule = Rule {
            head: head_atoms,
            body: body_lits,
            var_names,
        };
        self.check_safety(&rule)?;
        self.rules.push(rule);
        Ok(())
    }

    fn check_safety(&self, rule: &Rule) -> Result<(), AspError> {
        let mut safe = vec![false; rule.var_names.len()];
        for lit in &rule.body {
            if let Literal::Pos(a) = lit {
                for t in &a.terms {
                    if let Term::Var(v) = t {
                        safe[*v as usize] = true;
                    }
                }
            }
        }
        let check = |t: &Term| -> Result<(), AspError> {
            if let Term::Var(v) = t {
                if !safe[*v as usize] {
                    return Err(AspError::UnsafeRule {
                        rule: crate::display::rule_to_string(self, rule),
                        var: rule.var_names[*v as usize].clone(),
                    });
                }
            }
            Ok(())
        };
        for a in &rule.head {
            for t in &a.terms {
                check(t)?;
            }
        }
        for lit in &rule.body {
            match lit {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    for t in &a.terms {
                        check(t)?;
                    }
                }
                Literal::Cmp(_, l, r) => {
                    check(l)?;
                    check(r)?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::display::program_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::{i, s};

    #[test]
    fn facts_declare_predicates() {
        let mut p = Program::new();
        p.fact("r", [s("a"), i(1)]).unwrap();
        let id = p.pred_id("r").unwrap();
        assert_eq!(p.pred_arity(id), 2);
        assert_eq!(p.pred_name(id), "r");
        assert_eq!(p.facts().len(), 1);
    }

    #[test]
    fn arity_conflicts_rejected() {
        let mut p = Program::new();
        p.fact("r", [s("a")]).unwrap();
        assert!(matches!(
            p.fact("r", [s("a"), s("b")]),
            Err(AspError::ArityConflict { .. })
        ));
    }

    #[test]
    fn rule_resolution_shares_variables() {
        let mut p = Program::new();
        p.rule([atom("q", [tv("x")])], [pos(atom("r", [tv("x"), tv("y")]))])
            .unwrap();
        let rule = &p.rules()[0];
        assert_eq!(rule.var_names, vec!["x".to_string(), "y".into()]);
        assert_eq!(rule.head.len(), 1);
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let mut p = Program::new();
        let err = p.rule([atom("q", [tv("z")])], [pos(atom("r", [tv("x")]))]);
        assert!(matches!(err, Err(AspError::UnsafeRule { .. })));
    }

    #[test]
    fn unsafe_negated_var_rejected() {
        let mut p = Program::new();
        let err = p.rule(
            [atom("q", [tv("x")])],
            [pos(atom("r", [tv("x")])), neg(atom("t", [tv("w")]))],
        );
        assert!(matches!(err, Err(AspError::UnsafeRule { .. })));
    }

    #[test]
    fn unsafe_builtin_var_rejected() {
        let mut p = Program::new();
        let err = p.rule(
            [],
            [
                pos(atom("r", [tv("x")])),
                cmp(tv("x"), BuiltinOp::Lt, tv("bound")),
            ],
        );
        assert!(matches!(err, Err(AspError::UnsafeRule { .. })));
    }

    #[test]
    fn denials_and_constants_are_safe() {
        let mut p = Program::new();
        p.rule(
            [],
            [
                pos(atom("r", [tv("x"), tc(i(3))])),
                cmp(tv("x"), BuiltinOp::Neq, tc(s("a"))),
            ],
        )
        .unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    #[test]
    fn builtin_eval_total_order() {
        use cqa_relational::null;
        assert!(BuiltinOp::Eq.eval(&null(), &null()));
        assert!(BuiltinOp::Neq.eval(&null(), &i(0)));
        assert!(BuiltinOp::Lt.eval(&i(1), &i(2)));
        assert!(BuiltinOp::Geq.eval(&s("b"), &s("a")));
    }
}
