//! Safe first-order queries: conjunctive queries with negation and
//! builtins, and unions thereof.
//!
//! The paper (Definition 8) defines consistent answers for first-order
//! queries under a query-answering relation `|=q_N` it deliberately leaves
//! open (Section 4). This implementation fixes the standard choice: safe
//! queries evaluated classically with `null` treated as an ordinary
//! constant — polynomial in data, coinciding with classical first-order
//! semantics on null-free databases, exactly the two properties the paper
//! assumes. A convenience filter excludes answers containing `null`
//! ([`AnswerSemantics::ExcludeNullAnswers`]) for applications that read
//! nulls as "unknown" rather than as a value.
//!
//! ## Evaluation
//!
//! Every answer route ends here: enumeration evaluates the query in each
//! repair (D + Δ on a working copy), FO-rewrite and the chase enumerate
//! the candidate bindings of its positive body on the inconsistent
//! instance. Evaluation runs the workspace's one join,
//! [`cqa_relational::Join`], over the positive atoms in the query's atom
//! order — an *index nested-loop join* — and applies builtins and negated
//! atoms to each binding it yields:
//!
//! * an atom with bound columns (constants, or variables an earlier atom
//!   bound) lists its candidates by probing the index of exactly those
//!   columns ([`cqa_relational::Candidates`]); an atom with none scans
//!   its relation;
//! * a fully bound atom — and every negated atom, since query safety
//!   binds all of its variables — is one membership test, never a scan;
//! * under [`QueryNullSemantics::SqlThreeValued`] a bound `null` matches
//!   nothing (Franconi & Tessaris' reading of SQL nulls), so such an atom
//!   has no candidates and the `null` key is never probed. Under
//!   [`QueryNullSemantics::NullAsValue`] `null` is a key like any other.
//!
//! Which indexes get built follows the rule in [`cqa_relational::index`]:
//! over the caller's instance (the fast paths) every probed index is built
//! on first use and kept; [`Query::eval_with`], which also runs over
//! instances made for one call (enumeration's working copies), builds an
//! index only for an inner atom, probed once per outer binding, and scans
//! a root atom unless its index is already registered. Buckets iterate in
//! tuple order, so matches come out in the order a scan finds them. A
//! working copy keeps the inner-atom indexes across the repairs it
//! serves: applying and reverting a Δ maintains them.
//!
//! Answers are collected and each answer set is built in one pass (one
//! sort, then a bulk B-tree build), not by one insert per answer.

use crate::error::CoreError;
use cqa_constraints::{c, v, CmpOp, TermSpec};
use cqa_relational::{
    BodyAtom, IndexBuild, Instance, Join, Order, RelId, Schema, Slot, Tuple, Value,
};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

/// How to treat nulls in answer tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerSemantics {
    /// Return every answer, nulls included (default: null is a value).
    #[default]
    IncludeNullAnswers,
    /// Drop answer tuples containing `null` (null as "unknown").
    ExcludeNullAnswers,
}

/// How nulls behave *inside* query evaluation — the `|=q_N` knob the
/// paper's Section 7(a) defers to its extended version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryNullSemantics {
    /// Null is an ordinary constant: `null = null` joins, comparisons
    /// treat null via the total value order. Matches the IC-checking
    /// convention of Definition 4 (default).
    #[default]
    NullAsValue,
    /// SQL's three-valued reading: a comparison or join touching `null`
    /// is *unknown*, hence never satisfies a condition. Nulls still bind
    /// to variables (they can be *returned*), but they never *test* equal
    /// — not even to another null — and builtins over null are false.
    SqlThreeValued,
}

impl QueryNullSemantics {
    /// Builtin comparison under this semantics.
    fn cmp(self, op: CmpOp, a: &Value, b: &Value) -> bool {
        match self {
            QueryNullSemantics::NullAsValue => op.eval(a, b),
            QueryNullSemantics::SqlThreeValued => !a.is_null() && !b.is_null() && op.eval(a, b),
        }
    }
}

/// A term inside a query atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum QTerm {
    Var(u32),
    Const(Value),
}

/// A query atom over a schema relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QAtom {
    pub rel: RelId,
    pub terms: Vec<QTerm>,
}

impl BodyAtom for QAtom {
    fn source(&self) -> usize {
        self.rel.index()
    }

    fn arity(&self) -> usize {
        self.terms.len()
    }

    fn term(&self, pos: usize) -> Slot {
        match &self.terms[pos] {
            QTerm::Var(v) => Slot::Var(*v as usize),
            QTerm::Const(c) => Slot::Const(*c),
        }
    }
}

/// A builtin comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QBuiltin {
    pub op: CmpOp,
    pub lhs: QTerm,
    pub rhs: QTerm,
}

/// A safe conjunctive query with negation:
/// `ans(x̄) ← pos₁, …, not neg₁, …, cmp₁, …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    pub(crate) name: String,
    pub(crate) var_names: Vec<String>,
    pub(crate) head: Vec<u32>,
    pub(crate) pos: Vec<QAtom>,
    pub(crate) neg: Vec<QAtom>,
    pub(crate) builtins: Vec<QBuiltin>,
}

impl ConjunctiveQuery {
    /// Start building a query against `schema`. `head_vars` lists the
    /// answer variables (empty = boolean query).
    pub fn builder(
        schema: &Schema,
        name: impl Into<String>,
        head_vars: impl IntoIterator<Item = impl Into<String>>,
    ) -> QueryBuilder<'_> {
        QueryBuilder::new(schema, name, head_vars)
    }

    /// Number of answer variables (0 = boolean).
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Is this a boolean (sentence) query?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluate over one instance with the default (null-as-value)
    /// semantics: the set of head-variable bindings. For a boolean query
    /// the result is either `{()}` (true) or `{}`.
    pub fn eval(&self, instance: &Instance) -> std::collections::BTreeSet<Tuple> {
        self.eval_with(instance, QueryNullSemantics::NullAsValue)
    }

    /// Evaluate under an explicit null semantics (`|=q_N` hook).
    ///
    /// A root atom is listed through an index only when `instance`
    /// already has one; inner atoms build theirs (see the module docs).
    pub fn eval_with(
        &self,
        instance: &Instance,
        mode: QueryNullSemantics,
    ) -> std::collections::BTreeSet<Tuple> {
        let mut out = Vec::new();
        self.answers_into(instance, mode, &mut out);
        out.into_iter().collect()
    }

    /// Push every answer, duplicates included, onto `out`.
    fn answers_into(&self, instance: &Instance, mode: QueryNullSemantics, out: &mut Vec<Tuple>) {
        self.join(
            instance,
            mode,
            IndexBuild::RegisteredOnly,
            &mut |bindings| {
                // negated atoms: no matching tuple may exist.
                if self
                    .neg
                    .iter()
                    .any(|n| atom_has_match(instance, n, bindings, mode))
                {
                    return true;
                }
                let answer: Tuple = self
                    .head
                    .iter()
                    .map(|v| bindings[*v as usize].expect("safe head var"))
                    .collect();
                out.push(answer);
                true
            },
        );
    }

    /// Enumerate every binding of the *positive* body (builtins applied,
    /// negated atoms NOT applied) and hand it to `sink`; a `false` return
    /// from the sink aborts the enumeration. The fast-path planner uses
    /// this to intercept each candidate match before the classical
    /// negation filter, substituting its own repair-aware treatment of
    /// positive and negated ground atoms. `instance` is the caller's, so
    /// every probed index is built on first use and kept.
    pub(crate) fn for_each_match(
        &self,
        instance: &Instance,
        mode: QueryNullSemantics,
        sink: &mut dyn FnMut(&[Option<Value>]) -> bool,
    ) {
        self.join(instance, mode, IndexBuild::OnFirstUse, sink);
    }

    /// Join the positive atoms in atom order, the root atom listed under
    /// `root` (see the module docs), and hand every binding that passes
    /// the builtins to `sink` until it returns `false`.
    fn join(
        &self,
        instance: &Instance,
        mode: QueryNullSemantics,
        root: IndexBuild,
        sink: &mut dyn FnMut(&[Option<Value>]) -> bool,
    ) {
        let join = Join {
            source: instance,
            atoms: &self.pos,
            order: Order::Body,
            bound_null_matches: mode == QueryNullSemantics::NullAsValue,
            root,
        };
        let mut bindings: Vec<Option<Value>> = vec![None; self.var_names.len()];
        let _ = join.run(&mut bindings, None, |bindings, _| {
            let passes = self.builtins.iter().all(|b| {
                let l = term_value(&b.lhs, bindings);
                let r = term_value(&b.rhs, bindings);
                mode.cmp(b.op, l, r)
            });
            if !passes || sink(bindings) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
    }
}

/// The nested-loop oracle's undo (see the test module).
#[cfg(test)]
fn undo(bindings: &mut [Option<Value>], newly: &[u32]) {
    for v in newly {
        bindings[*v as usize] = None;
    }
}

fn term_value<'a>(t: &'a QTerm, bindings: &'a [Option<Value>]) -> &'a Value {
    match t {
        QTerm::Const(c) => c,
        QTerm::Var(v) => bindings[*v as usize].as_ref().expect("safe var"),
    }
}

/// Does some tuple match the negated `atom` under the bindings? Query
/// safety binds every variable of a negated atom, so this is one
/// membership test; under SQL semantics a `null` in it matches nothing.
fn atom_has_match(
    instance: &Instance,
    atom: &QAtom,
    bindings: &[Option<Value>],
    mode: QueryNullSemantics,
) -> bool {
    let values: Vec<Value> = atom
        .terms
        .iter()
        .map(|t| *term_value(t, bindings))
        .collect();
    (mode == QueryNullSemantics::NullAsValue || !values.iter().any(Value::is_null))
        && instance.relation(atom.rel).contains(values.as_slice())
}

/// A union of conjunctive queries with matching answer arity — the `Query`
/// type the CQA layer accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub(crate) disjuncts: Vec<ConjunctiveQuery>,
}

impl Query {
    /// A single-disjunct query.
    pub fn from_cq(cq: ConjunctiveQuery) -> Self {
        Query {
            disjuncts: vec![cq],
        }
    }

    /// A union; all disjuncts must share the answer arity.
    pub fn union(disjuncts: Vec<ConjunctiveQuery>) -> Result<Self, CoreError> {
        if disjuncts.is_empty() {
            return Err(CoreError::InvalidQuery("empty union".into()));
        }
        let arity = disjuncts[0].arity();
        if disjuncts.iter().any(|d| d.arity() != arity) {
            return Err(CoreError::InvalidQuery(
                "union disjuncts must share answer arity".into(),
            ));
        }
        Ok(Query { disjuncts })
    }

    /// Answer arity.
    pub fn arity(&self) -> usize {
        self.disjuncts[0].arity()
    }

    /// Is this a boolean query?
    pub fn is_boolean(&self) -> bool {
        self.arity() == 0
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Evaluate: union of the disjunct answers.
    pub fn eval(&self, instance: &Instance) -> std::collections::BTreeSet<Tuple> {
        self.eval_with(instance, QueryNullSemantics::NullAsValue)
    }

    /// Evaluate under an explicit null semantics.
    pub fn eval_with(
        &self,
        instance: &Instance,
        mode: QueryNullSemantics,
    ) -> std::collections::BTreeSet<Tuple> {
        let mut out = Vec::new();
        for d in &self.disjuncts {
            d.answers_into(instance, mode, &mut out);
        }
        out.into_iter().collect()
    }
}

impl From<ConjunctiveQuery> for Query {
    fn from(cq: ConjunctiveQuery) -> Self {
        Query::from_cq(cq)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vars: Vec<&str> = self
            .head
            .iter()
            .map(|v| self.var_names[*v as usize].as_str())
            .collect();
        write!(f, "{}({})", self.name, vars.join(", "))
    }
}

/// Builder for [`ConjunctiveQuery`]. Reuses the constraint layer's
/// [`TermSpec`] (so `v("x")` / `c(1)` work in both).
pub struct QueryBuilder<'s> {
    schema: &'s Schema,
    name: String,
    head_names: Vec<String>,
    vars: BTreeMap<String, u32>,
    var_names: Vec<String>,
    pos: Vec<QAtom>,
    neg: Vec<QAtom>,
    builtins: Vec<QBuiltin>,
    error: Option<CoreError>,
}

impl<'s> QueryBuilder<'s> {
    fn new(
        schema: &'s Schema,
        name: impl Into<String>,
        head_vars: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        QueryBuilder {
            schema,
            name: name.into(),
            head_names: head_vars.into_iter().map(Into::into).collect(),
            vars: BTreeMap::new(),
            var_names: Vec::new(),
            pos: Vec::new(),
            neg: Vec::new(),
            builtins: Vec::new(),
            error: None,
        }
    }

    fn term(&mut self, spec: TermSpec) -> QTerm {
        match spec {
            TermSpec::Var(n) => {
                let next = self.var_names.len() as u32;
                let id = *self.vars.entry(n.clone()).or_insert_with(|| {
                    self.var_names.push(n);
                    next
                });
                QTerm::Var(id)
            }
            TermSpec::Const(val) => QTerm::Const(val),
        }
    }

    fn resolve(&mut self, relation: &str, terms: Vec<TermSpec>) -> Option<QAtom> {
        let Some(rel) = self.schema.rel_id(relation) else {
            self.error = Some(CoreError::InvalidQuery(format!(
                "unknown relation `{relation}`"
            )));
            return None;
        };
        let arity = self.schema.relation(rel).arity();
        if terms.len() != arity {
            self.error = Some(CoreError::InvalidQuery(format!(
                "atom over `{relation}` has {} terms, arity is {arity}",
                terms.len()
            )));
            return None;
        }
        let terms = terms.into_iter().map(|t| self.term(t)).collect();
        Some(QAtom { rel, terms })
    }

    /// Add a positive atom.
    pub fn atom(mut self, relation: &str, terms: impl IntoIterator<Item = TermSpec>) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Some(a) = self.resolve(relation, terms.into_iter().collect()) {
            self.pos.push(a);
        }
        self
    }

    /// Add a negated atom.
    pub fn not_atom(mut self, relation: &str, terms: impl IntoIterator<Item = TermSpec>) -> Self {
        if self.error.is_some() {
            return self;
        }
        if let Some(a) = self.resolve(relation, terms.into_iter().collect()) {
            self.neg.push(a);
        }
        self
    }

    /// Add a builtin comparison.
    pub fn cmp(mut self, lhs: TermSpec, op: CmpOp, rhs: TermSpec) -> Self {
        if self.error.is_some() {
            return self;
        }
        let l = self.term(lhs);
        let r = self.term(rhs);
        self.builtins.push(QBuiltin { op, lhs: l, rhs: r });
        self
    }

    /// Validate safety and finish.
    pub fn finish(mut self) -> Result<ConjunctiveQuery, CoreError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // Resolve head variables (they must occur in the body to be safe).
        let head: Vec<u32> = self
            .head_names
            .iter()
            .map(|n| self.vars.get(n).copied())
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                CoreError::InvalidQuery("head variable does not occur in the body".into())
            })?;
        // Safety: positive atoms bind everything used elsewhere.
        let mut safe = vec![false; self.var_names.len()];
        for a in &self.pos {
            for t in &a.terms {
                if let QTerm::Var(v) = t {
                    safe[*v as usize] = true;
                }
            }
        }
        let unsafe_var = |terms: &[&QTerm]| -> Option<String> {
            for t in terms {
                if let QTerm::Var(v) = t {
                    if !safe[*v as usize] {
                        return Some(self.var_names[*v as usize].clone());
                    }
                }
            }
            None
        };
        for v in &head {
            if !safe[*v as usize] {
                return Err(CoreError::InvalidQuery(format!(
                    "head variable `{}` not bound by a positive atom",
                    self.var_names[*v as usize]
                )));
            }
        }
        for a in &self.neg {
            if let Some(name) = unsafe_var(&a.terms.iter().collect::<Vec<_>>()) {
                return Err(CoreError::InvalidQuery(format!(
                    "negated atom uses unbound variable `{name}`"
                )));
            }
        }
        for b in &self.builtins {
            if let Some(name) = unsafe_var(&[&b.lhs, &b.rhs]) {
                return Err(CoreError::InvalidQuery(format!(
                    "builtin uses unbound variable `{name}`"
                )));
            }
        }
        Ok(ConjunctiveQuery {
            name: self.name,
            var_names: self.var_names,
            head,
            pos: self.pos,
            neg: self.neg,
            builtins: self.builtins,
        })
    }
}

/// Re-export the term shorthands for query building.
pub fn qv(name: &str) -> TermSpec {
    v(name)
}

/// Constant term shorthand.
pub fn qc(value: impl Into<Value>) -> TermSpec {
    c(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::testing::{random_instance, DomainSpec, XorShift};
    use cqa_relational::{i, null, s, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Instance) {
        let sc = Schema::builder()
            .relation("Emp", ["id", "dept"])
            .relation("Dept", ["name"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("Emp", [i(1), s("cs")]).unwrap();
        d.insert_named("Emp", [i(2), s("math")]).unwrap();
        d.insert_named("Emp", [i(3), null()]).unwrap();
        d.insert_named("Dept", [s("cs")]).unwrap();
        (sc, d)
    }

    #[test]
    fn basic_join() {
        let (sc, d) = setup();
        let q = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .atom("Dept", [qv("d")])
            .finish()
            .unwrap();
        let answers = q.eval(&d);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&Tuple::new(vec![i(1)])));
    }

    #[test]
    fn negation() {
        let (sc, d) = setup();
        let q = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .not_atom("Dept", [qv("d")])
            .finish()
            .unwrap();
        let answers = q.eval(&d);
        // math and null departments are not in Dept (null as a constant).
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn builtins_and_constants() {
        let (sc, d) = setup();
        let q = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .cmp(qv("x"), CmpOp::Gt, qc(1))
            .finish()
            .unwrap();
        assert_eq!(q.eval(&d).len(), 2);
        let q2 = ConjunctiveQuery::builder(&sc, "q2", ["x"])
            .atom("Emp", [qv("x"), qc(s("cs"))])
            .finish()
            .unwrap();
        assert_eq!(q2.eval(&d).len(), 1);
    }

    #[test]
    fn null_matches_null_constant_semantics() {
        let (sc, d) = setup();
        let q = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("Emp", [qv("x"), qc(null())])
            .finish()
            .unwrap();
        let answers = q.eval(&d);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains(&Tuple::new(vec![i(3)])));
    }

    #[test]
    fn sql_three_valued_mode_never_joins_null() {
        let (sc, d) = setup();
        // join Emp.dept with Dept.name: emp 3 has a null dept.
        let join = ConjunctiveQuery::builder(&sc, "j", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .atom("Dept", [qv("d")])
            .finish()
            .unwrap();
        // Both modes agree here (no null in Dept):
        assert_eq!(
            join.eval_with(&d, QueryNullSemantics::SqlThreeValued),
            join.eval(&d)
        );
        // But a literal null never matches in SQL mode:
        let null_probe = ConjunctiveQuery::builder(&sc, "p", ["x"])
            .atom("Emp", [qv("x"), qc(null())])
            .finish()
            .unwrap();
        assert_eq!(null_probe.eval(&d).len(), 1);
        assert!(null_probe
            .eval_with(&d, QueryNullSemantics::SqlThreeValued)
            .is_empty());
        // Builtins over null are unknown → false:
        let cmp_null = ConjunctiveQuery::builder(&sc, "c", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .cmp(qv("d"), CmpOp::Neq, qc(s("cs")))
            .finish()
            .unwrap();
        // null dept: `d <> 'cs'` is true as-value, unknown in SQL mode.
        assert!(cmp_null.eval(&d).contains(&Tuple::new(vec![i(3)])));
        assert!(!cmp_null
            .eval_with(&d, QueryNullSemantics::SqlThreeValued)
            .contains(&Tuple::new(vec![i(3)])));
    }

    #[test]
    fn sql_mode_nulls_still_bindable_and_returnable() {
        let (sc, d) = setup();
        // Nulls can be *returned* — they just never *test* equal.
        let q = ConjunctiveQuery::builder(&sc, "q", ["d"])
            .atom("Emp", [qv("x"), qv("d")])
            .finish()
            .unwrap();
        let answers = q.eval_with(&d, QueryNullSemantics::SqlThreeValued);
        assert!(answers.contains(&Tuple::new(vec![null()])));
    }

    #[test]
    fn sql_mode_negation_uses_strict_matching() {
        let (sc, d) = setup();
        // `not Dept(d)` with d = null: under SQL semantics the negated
        // atom can never match (null never equals), so emp 3 qualifies in
        // both modes; the difference shows when Dept itself holds a null.
        let mut d2 = d.clone();
        d2.insert_named("Dept", [null()]).unwrap();
        let q = ConjunctiveQuery::builder(&sc, "q", ["x"])
            .atom("Emp", [qv("x"), qv("dd")])
            .not_atom("Dept", [qv("dd")])
            .finish()
            .unwrap();
        // as-value: Dept(null) matches emp 3's null dept → excluded.
        assert!(!q.eval(&d2).contains(&Tuple::new(vec![i(3)])));
        // SQL mode: null ≠ null → not excluded.
        assert!(q
            .eval_with(&d2, QueryNullSemantics::SqlThreeValued)
            .contains(&Tuple::new(vec![i(3)])));
    }

    #[test]
    fn boolean_query() {
        let (sc, d) = setup();
        let q = ConjunctiveQuery::builder(&sc, "q", Vec::<String>::new())
            .atom("Dept", [qc(s("cs"))])
            .finish()
            .unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.eval(&d).len(), 1); // the empty tuple: true
        let q2 = ConjunctiveQuery::builder(&sc, "q2", Vec::<String>::new())
            .atom("Dept", [qc(s("bio"))])
            .finish()
            .unwrap();
        assert!(q2.eval(&d).is_empty()); // false
    }

    #[test]
    fn union_queries() {
        let (sc, d) = setup();
        let q1 = ConjunctiveQuery::builder(&sc, "q1", ["x"])
            .atom("Emp", [qv("x"), qc(s("cs"))])
            .finish()
            .unwrap();
        let q2 = ConjunctiveQuery::builder(&sc, "q2", ["x"])
            .atom("Emp", [qv("x"), qc(s("math"))])
            .finish()
            .unwrap();
        let u = Query::union(vec![q1, q2]).unwrap();
        assert_eq!(u.eval(&d).len(), 2);
    }

    #[test]
    fn safety_violations_rejected() {
        let (sc, _) = setup();
        assert!(matches!(
            ConjunctiveQuery::builder(&sc, "bad", ["z"])
                .atom("Dept", [qv("d")])
                .finish(),
            Err(CoreError::InvalidQuery(_))
        ));
        assert!(matches!(
            ConjunctiveQuery::builder(&sc, "bad", Vec::<String>::new())
                .atom("Dept", [qv("d")])
                .not_atom("Emp", [qv("w"), qv("d")])
                .finish(),
            Err(CoreError::InvalidQuery(_))
        ));
        assert!(matches!(
            ConjunctiveQuery::builder(&sc, "bad", Vec::<String>::new())
                .atom("Dept", [qv("d")])
                .cmp(qv("q"), CmpOp::Lt, qc(1))
                .finish(),
            Err(CoreError::InvalidQuery(_))
        ));
    }

    #[test]
    fn arity_mismatched_union_rejected() {
        let (sc, _) = setup();
        let q1 = ConjunctiveQuery::builder(&sc, "q1", ["x"])
            .atom("Emp", [qv("x"), qv("d")])
            .finish()
            .unwrap();
        let q2 = ConjunctiveQuery::builder(&sc, "q2", Vec::<String>::new())
            .atom("Dept", [qv("d")])
            .finish()
            .unwrap();
        assert!(Query::union(vec![q1, q2]).is_err());
        assert!(Query::union(vec![]).is_err());
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        let (sc, _) = setup();
        assert!(ConjunctiveQuery::builder(&sc, "bad", Vec::<String>::new())
            .atom("Nope", [qv("x")])
            .finish()
            .is_err());
        assert!(ConjunctiveQuery::builder(&sc, "bad", Vec::<String>::new())
            .atom("Dept", [qv("x"), qv("y")])
            .finish()
            .is_err());
    }

    impl QueryNullSemantics {
        /// Equality under this semantics, as the nested-loop oracle tests
        /// it (the join carries the same rule as `bound_null_matches`).
        fn values_match(self, a: &Value, b: &Value) -> bool {
            match self {
                QueryNullSemantics::NullAsValue => a == b,
                QueryNullSemantics::SqlThreeValued => !a.is_null() && !b.is_null() && a == b,
            }
        }
    }

    /// The nested-loop evaluator the index-backed one replaced, kept as
    /// its oracle: every positive atom scans its whole relation, every
    /// negated atom too.
    mod nested_loop {
        use super::super::*;

        pub(super) fn eval(q: &Query, d: &Instance, mode: QueryNullSemantics) -> Vec<Tuple> {
            let mut out = std::collections::BTreeSet::new();
            for cq in q.disjuncts() {
                for b in matches(cq, d, mode) {
                    if cq.neg.iter().any(|n| has_match(d, n, &b, mode)) {
                        continue;
                    }
                    out.insert(cq.head.iter().map(|v| b[*v as usize].unwrap()).collect());
                }
            }
            out.into_iter().collect()
        }

        /// Every binding of the positive body, builtins applied, in
        /// match order.
        pub(super) fn matches(
            cq: &ConjunctiveQuery,
            d: &Instance,
            mode: QueryNullSemantics,
        ) -> Vec<Vec<Option<Value>>> {
            let mut out = Vec::new();
            let mut bindings = vec![None; cq.var_names.len()];
            join(cq, d, mode, 0, &mut bindings, &mut out);
            out
        }

        fn join(
            cq: &ConjunctiveQuery,
            d: &Instance,
            mode: QueryNullSemantics,
            depth: usize,
            bindings: &mut Vec<Option<Value>>,
            out: &mut Vec<Vec<Option<Value>>>,
        ) {
            if depth == cq.pos.len() {
                if cq.builtins.iter().all(|b| {
                    mode.cmp(
                        b.op,
                        term_value(&b.lhs, bindings),
                        term_value(&b.rhs, bindings),
                    )
                }) {
                    out.push(bindings.clone());
                }
                return;
            }
            let atom = &cq.pos[depth];
            'tuples: for t in d.relation(atom.rel) {
                let mut newly: Vec<u32> = Vec::new();
                for (pos, term) in atom.terms.iter().enumerate() {
                    let val = t.get(pos);
                    let ok = match term {
                        QTerm::Const(cv) => mode.values_match(val, cv),
                        QTerm::Var(vid) => match &bindings[*vid as usize] {
                            Some(b) => mode.values_match(b, val),
                            None => {
                                bindings[*vid as usize] = Some(*val);
                                newly.push(*vid);
                                true
                            }
                        },
                    };
                    if !ok {
                        undo(bindings, &newly);
                        continue 'tuples;
                    }
                }
                join(cq, d, mode, depth + 1, bindings, out);
                undo(bindings, &newly);
            }
        }

        fn has_match(
            d: &Instance,
            atom: &QAtom,
            bindings: &[Option<Value>],
            mode: QueryNullSemantics,
        ) -> bool {
            d.relation(atom.rel).iter().any(|t| {
                atom.terms
                    .iter()
                    .enumerate()
                    .all(|(pos, term)| mode.values_match(t.get(pos), term_value(term, bindings)))
            })
        }
    }

    fn sweep_schema() -> Arc<Schema> {
        Schema::builder()
            .relation("R", ["a", "b"])
            .relation("S", ["a", "b"])
            .relation("T", ["a", "b", "c"])
            .finish()
            .unwrap()
            .into_shared()
    }

    /// A random term: one of four variables, or a constant (null
    /// included).
    fn random_term(rng: &mut XorShift) -> TermSpec {
        match rng.below(7) {
            0 => qc(s("c0")),
            1 => qc(s("c1")),
            2 => qc(null()),
            k => qv(&format!("x{}", k - 3)),
        }
    }

    /// A random safe CQ over `sweep_schema`: 1–3 positive atoms (repeated
    /// variables and constants included), maybe a negated atom and a
    /// builtin over the variables they bind. `None` if the draw is
    /// unsafe.
    fn random_cq(sc: &Schema, rng: &mut XorShift, arity: usize) -> Option<ConjunctiveQuery> {
        let rels = [("R", 2), ("S", 2), ("T", 3)];
        let mut bound: Vec<String> = Vec::new();
        let mut pos = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (rel, n) = rels[rng.below(rels.len())];
            let terms: Vec<TermSpec> = (0..n).map(|_| random_term(rng)).collect();
            for t in &terms {
                if let TermSpec::Var(name) = t {
                    if !bound.contains(name) {
                        bound.push(name.clone());
                    }
                }
            }
            pos.push((rel, terms));
        }
        if bound.len() < arity {
            return None;
        }
        let pick = |rng: &mut XorShift| {
            if bound.is_empty() || rng.chance(1, 4) {
                qc(if rng.chance(1, 3) { null() } else { s("c0") })
            } else {
                qv(&bound[rng.below(bound.len())])
            }
        };
        let head: Vec<String> = bound[..arity].to_vec();
        let mut b = ConjunctiveQuery::builder(sc, "q", head);
        for (rel, terms) in pos {
            b = b.atom(rel, terms);
        }
        if rng.chance(1, 2) {
            let (rel, n) = rels[rng.below(rels.len())];
            b = b.not_atom(rel, (0..n).map(|_| pick(rng)).collect::<Vec<_>>());
        }
        if rng.chance(1, 3) {
            let ops = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Geq];
            b = b.cmp(pick(rng), ops[rng.below(ops.len())], pick(rng));
        }
        b.finish().ok()
    }

    fn random_query(sc: &Schema, rng: &mut XorShift) -> Option<Query> {
        let arity = rng.below(3);
        let disjuncts = (0..1 + rng.below(2))
            .map(|_| random_cq(sc, rng, arity))
            .collect::<Option<Vec<_>>>()?;
        Query::union(disjuncts).ok()
    }

    #[test]
    fn index_backed_evaluation_equals_the_nested_loop_oracle() {
        let sc = sweep_schema();
        let domain = DomainSpec {
            constants: 3,
            null_percent: 20,
        };
        let mut rng = XorShift::new(0x1dea);
        let mut checked = 0;
        for round in 0..400u64 {
            let Some(q) = random_query(&sc, &mut rng) else {
                continue;
            };
            let d = random_instance(&sc, 1000 + round, 1 + rng.below(8), &domain);
            for mode in [
                QueryNullSemantics::NullAsValue,
                QueryNullSemantics::SqlThreeValued,
            ] {
                let want = nested_loop::eval(&q, &d, mode);
                let what = format!("round {round}, {mode:?}, {q:?}");
                // A fresh instance: roots scan, inner atoms build.
                let fresh = d.clone();
                let got: Vec<Tuple> = q.eval_with(&fresh, mode).into_iter().collect();
                assert_eq!(got, want, "eval_with on a fresh instance: {what}");
                for cq in q.disjuncts() {
                    let mut seen = Vec::new();
                    cq.for_each_match(&fresh, mode, &mut |b| {
                        seen.push(b.to_vec());
                        true
                    });
                    assert_eq!(seen, nested_loop::matches(cq, &d, mode), "matches: {what}");
                }
                // for_each_match registered every probed index: roots now
                // probe too.
                let got: Vec<Tuple> = q.eval_with(&fresh, mode).into_iter().collect();
                assert_eq!(got, want, "eval_with with registered indexes: {what}");
            }
            checked += 1;
        }
        assert!(checked >= 200, "only {checked} of 400 draws were safe");
    }

    #[test]
    fn a_root_atom_builds_no_index_in_eval_with() {
        let (sc, d) = setup();
        let emp = sc.rel_id("Emp").unwrap();
        let point = ConjunctiveQuery::builder(&sc, "p", ["d"])
            .atom("Emp", [qc(1), qv("d")])
            .finish()
            .unwrap();
        assert_eq!(point.eval(&d), [Tuple::new(vec![s("cs")])].into());
        assert!(d.indexed_columns(emp).is_empty());
        assert!(d.indexed_column_sets(emp).is_empty());
    }

    #[test]
    fn a_key_fd_point_read_shares_one_column_index() {
        use crate::cqa::consistent_answers;
        use crate::engine::RepairConfig;
        use cqa_constraints::{builders, IcSet};
        let sc = Schema::builder()
            .relation("R", ["k", "v"])
            .finish()
            .unwrap()
            .into_shared();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("R", [s("k1"), s("a")]).unwrap();
        d.insert_named("R", [s("k2"), s("a")]).unwrap();
        d.insert_named("R", [s("k2"), s("b")]).unwrap();
        let ics = IcSet::new([builders::functional_dependency(&sc, "R", &[0], 1)
            .unwrap()
            .into()]);
        let r = sc.rel_id("R").unwrap();
        for (key, want) in [("k1", vec![s("a")]), ("k2", vec![])] {
            let q: Query = ConjunctiveQuery::builder(&sc, "q", ["v"])
                .atom("R", [qc(s(key)), qv("v")])
                .finish()
                .unwrap()
                .into();
            let answers = consistent_answers(
                &d,
                &ics,
                &q,
                RepairConfig::default(),
                AnswerSemantics::IncludeNullAnswers,
                QueryNullSemantics::NullAsValue,
            )
            .unwrap();
            let want: Vec<Tuple> = want.into_iter().map(|v| Tuple::new(vec![v])).collect();
            assert_eq!(answers.tuples.into_iter().collect::<Vec<_>>(), want);
        }
        // The candidate probe and the key guard share the ColumnIndex on
        // the key column; no composite index duplicates it.
        assert_eq!(d.indexed_columns(r), vec![0]);
        assert!(d.indexed_column_sets(r).is_empty());
    }
}
