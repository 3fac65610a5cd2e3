//! Repair logic programs Π(D, IC) — Definition 9 of the paper — and the
//! stable-model → repair extraction of Definition 10 / Theorem 4.
//!
//! Annotation constants are realised as name-mangled predicates: for a
//! relation `r` the program uses `r` (facts), `r_ta` (advised true),
//! `r_fa` (advised false), `r_ts` (`t*`: true or becomes true) and
//! `r_tss` (`t**`: true in the repair), plus one `aux__<i>` predicate per
//! referential constraint. This keeps the ASP engine generic — the
//! annotation is part of the predicate name rather than an extra term —
//! and matches the paper's program rule for rule shape and count exactly.
//!
//! ## Paper erratum and [`ProgramStyle`]
//!
//! Definition 9's aux rules carry a `yᵢ ≠ null` guard. The guard is what
//! keeps the *insertion* branch stable (an inserted all-null witness must
//! not derive `aux`, or it would remove the very rule that justified it
//! from the Gelfond–Lifschitz reduct). Its side effect: a *pre-existing*
//! witness whose existential attributes are all null does not register,
//! so `Π(D, IC)` gains a spurious deletion model on databases like
//! `{S(u,a), R(a,null)}` with `S(u,v) → ∃y R(v,y)` — although
//! Definition 4 counts `R(a,null)` as a witness (cf. Example 13) and `D`
//! is consistent. [`ProgramStyle::Corrected`] (default) adds a fact-based
//! witness rule `aux(x̄′) ← Q(x̄′,ȳ), not Q_fa(x̄′,ȳ), x̄′ ≠ null`, which
//! registers every original witness without breaking insertion stability
//! (inserted witnesses are never facts). [`ProgramStyle::PaperExact`]
//! reproduces Definition 9 verbatim; experiment E18b demonstrates the
//! difference.
//!
//! A second, smaller deviation: Definition 9's UIC rule guards
//! `x_l ≠ null` range over `A(ψ) ∩ x̄`; the paper's Example 21 prints only
//! the key variable guard (valid under SQL's three-valued reading of the
//! `ϕ̄` builtins). We emit guards for the full IsNull-escape set of
//! formula (4), which is the faithful rendering of Definitions 4 + 9.
//!
//! ## Incremental grounding architecture
//!
//! Π(D, IC) depends on the database only through its **facts** — the
//! constraint, annotation and denial rules are functions of the schema
//! and the constraint set alone. That makes the program route a perfect
//! fit for the persistent grounder in `cqa-asp`
//! ([`cqa_asp::GroundingState`], whose module docs describe the worklist
//! and delta-seeding internals): a database delta is exactly a fact delta
//! of the program.
//!
//! The pieces, mirroring the direct route's worklist machinery:
//!
//! * **Cached state.** [`crate::cache::GroundingCache`] keeps one live
//!   `GroundingState` per `(IcSet, ProgramStyle, prune)` key, stamped
//!   with [`cqa_relational::Instance::version`]. A repeat call over an
//!   unchanged instance reuses the ground program outright.
//! * **Delta seeding.** On a version mismatch the cache takes the
//!   [`cqa_relational::InstanceDelta`] of the stored base instance
//!   against the caller's and replays it on the live state: removals run
//!   the DRed delete–rederive two-pass, insertions the seminaive
//!   worklist — regrounding bounded by the delta's derivation cone under
//!   *arbitrary* churn, the program-route analogue of
//!   `violations_touching` (the `program_route` bench pins regrounding
//!   after a single-fact insert or delete at a few percent of a
//!   from-scratch grounding at clean=800).
//! * **State invalidation.** Only drifts beyond the cache's escape-hatch
//!   fraction (replaying would cost more than starting over) and schema
//!   changes rebuild the entry; correctness never depends on the
//!   incremental path being taken. The oracle sweep in
//!   `tests/engine_vs_program.rs` pins incremental == from-scratch over
//!   random mixed insert/delete sequences.
//! * **Per-query extension.** CQA appends its `ans__q` rules to a *clone*
//!   of the cached state ([`cqa_asp::GroundingState::add_rule`]), so
//!   query rules never pollute the shared grounding.

use crate::cache::CqaCaches;
use crate::error::{CoreError, InterruptPhase};
use cqa_asp::{
    atom, cmp, neg, pos, resolve_on_state, tc, tv, AspError, AtomSpec, BodyLit, BuiltinOp, Program,
};
use cqa_constraints::{classify::classify, Constraint, Ic, IcClass, IcSet, Term};
use cqa_relational::{CancelToken, DatabaseAtom, Instance, RelId, Schema, Tuple, Value};
use std::collections::BTreeMap;

/// Which variant of the repair program to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgramStyle {
    /// Definition 9, with the fact-based witness rule restoring the
    /// one-to-one stable-model/repair correspondence (default).
    #[default]
    Corrected,
    /// Definition 9 verbatim, including its all-null-witness corner case.
    PaperExact,
}

/// Annotation-predicate name for a relation.
pub fn annotated(name: &str, annotation: &str) -> String {
    format!("{name}_{annotation}")
}

/// The `aux` predicate name for constraint index `i`.
pub fn aux_pred(index: usize) -> String {
    format!("aux__{index}")
}

/// Build Π(D, IC). Errors on constraints outside the Definition-9 class
/// (anything existential that is not a plain referential IC).
pub fn repair_program(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
) -> Result<Program, CoreError> {
    repair_program_with(d, ics, style, false)
}

/// Build Π(D, IC) with optional *relevance pruning*: annotation,
/// interpretation and denial rules (rules 5–7) are emitted only for
/// relations that occur in some constraint. Untouched relations cannot
/// change in any repair, so their rules are dead weight in the ground
/// program — this is the program-optimisation direction of Caniupán &
/// Bertossi (reference \[12\] of the paper). Use
/// [`extract_instance_with_base`] to read models of pruned programs.
pub fn repair_program_with(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    prune_untouched: bool,
) -> Result<Program, CoreError> {
    let schema = d.schema();
    let mut p = Program::new();

    // 1. Facts.
    for a in d.atoms() {
        p.fact(
            schema.relation(a.rel).name(),
            a.tuple.values().iter().cloned(),
        )?;
    }
    // Declare every base predicate (even for empty relations) so rules
    // referencing them resolve with the right arity.
    for (_, decl) in schema.iter() {
        p.pred(decl.name(), decl.arity())?;
    }

    // 2–4. Constraint rules.
    for (index, con) in ics.constraints().iter().enumerate() {
        match con {
            Constraint::Tgd(ic) => match classify(ic) {
                IcClass::Universal => uic_rules(&mut p, schema, ic)?,
                IcClass::Referential => ric_rules(&mut p, schema, ic, index, style)?,
                IcClass::GeneralExistential => {
                    return Err(CoreError::UnsupportedByProgram {
                        constraint: ic.name().to_string(),
                        reason: "existential constraint outside form (3) \
                                 (repeated existential variable or multiple atoms)"
                            .into(),
                    })
                }
            },
            Constraint::NotNull(nnc) => {
                // 4. P_fa(x̄) ← P_ts(x̄), xᵢ = null.
                let rel = schema.relation(nnc.rel);
                let vars: Vec<String> = (0..rel.arity()).map(|i| format!("x{i}")).collect();
                let terms = |suffix: &str| {
                    atom(
                        annotated(rel.name(), suffix),
                        vars.iter().map(|v| tv(v.clone())),
                    )
                };
                p.rule(
                    [terms("fa")],
                    [
                        pos(terms("ts")),
                        cmp(
                            tv(vars[nnc.position].clone()),
                            BuiltinOp::Eq,
                            tc(Value::Null),
                        ),
                    ],
                )?;
            }
        }
    }

    // 5–7. Annotation, interpretation and denial rules, per predicate
    // (or only per constrained predicate when pruning).
    let constrained: std::collections::BTreeSet<RelId> = ics
        .constraints()
        .iter()
        .flat_map(|con| match con {
            Constraint::Tgd(ic) => ic.relations().into_iter().collect::<Vec<_>>(),
            Constraint::NotNull(nnc) => vec![nnc.rel],
        })
        .collect();
    for (rel, decl) in schema.iter() {
        if prune_untouched && !constrained.contains(&rel) {
            continue;
        }
        let vars: Vec<String> = (0..decl.arity()).map(|i| format!("x{i}")).collect();
        let with = |suffix: Option<&str>| -> AtomSpec {
            let name = match suffix {
                Some(sfx) => annotated(decl.name(), sfx),
                None => decl.name().to_string(),
            };
            atom(name, vars.iter().map(|v| tv(v.clone())))
        };
        // 5. t* ← fact; t* ← ta.
        p.rule([with(Some("ts"))], [pos(with(None))])?;
        p.rule([with(Some("ts"))], [pos(with(Some("ta")))])?;
        // 6. t** ← t*, not fa.
        p.rule(
            [with(Some("tss"))],
            [pos(with(Some("ts"))), neg(with(Some("fa")))],
        )?;
        // 7. ← ta, fa.
        p.rule([], [pos(with(Some("ta"))), pos(with(Some("fa")))])?;
    }
    Ok(p)
}

/// Convert a constraint term into an ASP term spec using the IC's own
/// variable names.
fn spec(ic: &Ic, t: &Term) -> cqa_asp::TermSpec {
    match t {
        Term::Var(v) => tv(ic.var_name(*v)),
        Term::Const(c) => tc(*c),
    }
}

/// Rules 2: one disjunctive rule per partition (Q′, Q″) of the head atoms.
fn uic_rules(p: &mut Program, schema: &Schema, ic: &Ic) -> Result<(), CoreError> {
    let n = ic.head().len();
    for mask in 0u32..(1 << n) {
        // bit set = head atom in Q′ (checked deleted), clear = in Q″
        // (checked absent).
        let mut head: Vec<AtomSpec> = Vec::new();
        let mut body: Vec<BodyLit> = Vec::new();
        for b in ic.body() {
            let name = schema.relation(b.rel).name();
            head.push(atom(
                annotated(name, "fa"),
                b.terms.iter().map(|t| spec(ic, t)),
            ));
            body.push(pos(atom(
                annotated(name, "ts"),
                b.terms.iter().map(|t| spec(ic, t)),
            )));
        }
        for (j, h) in ic.head().iter().enumerate() {
            let name = schema.relation(h.rel).name();
            head.push(atom(
                annotated(name, "ta"),
                h.terms.iter().map(|t| spec(ic, t)),
            ));
            if mask & (1 << j) != 0 {
                body.push(pos(atom(
                    annotated(name, "fa"),
                    h.terms.iter().map(|t| spec(ic, t)),
                )));
            } else {
                body.push(neg(atom(
                    name.to_string(),
                    h.terms.iter().map(|t| spec(ic, t)),
                )));
            }
        }
        // IsNull-escape guards: x ≠ null for the escape variables.
        for v in ic.relevant().escape_vars() {
            body.push(cmp(tv(ic.var_name(*v)), BuiltinOp::Neq, tc(Value::Null)));
        }
        // ϕ̄: conjunction of complemented builtins.
        for b in ic.builtins() {
            body.push(cmp(
                spec(ic, &b.lhs),
                to_asp_op(b.op.negate()),
                spec(ic, &b.rhs),
            ));
        }
        p.rule(head, body)?;
    }
    Ok(())
}

/// Rules 3: the referential fix rule plus the aux witness rules.
fn ric_rules(
    p: &mut Program,
    schema: &Schema,
    ic: &Ic,
    index: usize,
    style: ProgramStyle,
) -> Result<(), CoreError> {
    let body_atom = &ic.body()[0];
    let head_atom = &ic.head()[0];
    let body_name = schema.relation(body_atom.rel).name();
    let head_name = schema.relation(head_atom.rel).name();

    // x̄′: the distinct universal variables of the head atom, in order.
    let mut x_prime: Vec<String> = Vec::new();
    for t in &head_atom.terms {
        if let Term::Var(v) = t {
            if !ic.is_existential(*v) {
                let name = ic.var_name(*v).to_string();
                if !x_prime.contains(&name) {
                    x_prime.push(name);
                }
            }
        }
    }
    let guards = |vars: &[String]| -> Vec<BodyLit> {
        vars.iter()
            .map(|v| cmp(tv(v.clone()), BuiltinOp::Neq, tc(Value::Null)))
            .collect()
    };
    // Escape guards for the fix rule: all IsNull-escape variables of ψ
    // (= x̄′ for plain foreign keys).
    let escape_names: Vec<String> = ic
        .relevant()
        .escape_vars()
        .iter()
        .map(|v| ic.var_name(*v).to_string())
        .collect();

    // Fix rule: P_fa(x̄) ∨ Q_ta(x̄′, null̄) ← P_ts(x̄), not aux(x̄′), x̄′ ≠ null.
    let insert_terms: Vec<cqa_asp::TermSpec> = head_atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Var(v) if ic.is_existential(*v) => tc(Value::Null),
            other => spec(ic, other),
        })
        .collect();
    let mut fix_body: Vec<BodyLit> = vec![
        pos(atom(
            annotated(body_name, "ts"),
            body_atom.terms.iter().map(|t| spec(ic, t)),
        )),
        neg(atom(aux_pred(index), x_prime.iter().map(|v| tv(v.clone())))),
    ];
    fix_body.extend(guards(&escape_names));
    p.rule(
        [
            atom(
                annotated(body_name, "fa"),
                body_atom.terms.iter().map(|t| spec(ic, t)),
            ),
            atom(annotated(head_name, "ta"), insert_terms),
        ],
        fix_body,
    )?;

    // Witness terms: the head atom with its own variable names (existential
    // variables stay as variables).
    let witness_terms: Vec<cqa_asp::TermSpec> =
        head_atom.terms.iter().map(|t| spec(ic, t)).collect();
    let existential_names: Vec<String> = head_atom
        .terms
        .iter()
        .filter_map(|t| match t {
            Term::Var(v) if ic.is_existential(*v) => Some(ic.var_name(*v).to_string()),
            _ => None,
        })
        .collect();

    // aux(x̄′) ← Q_ts(x̄′, ȳ), not Q_fa(x̄′, ȳ), x̄′ ≠ null, yᵢ ≠ null
    // — one rule per existential variable (Definition 9 verbatim).
    for y in &existential_names {
        let mut body: Vec<BodyLit> = vec![
            pos(atom(annotated(head_name, "ts"), witness_terms.clone())),
            neg(atom(annotated(head_name, "fa"), witness_terms.clone())),
        ];
        body.extend(guards(&x_prime));
        body.push(cmp(tv(y.clone()), BuiltinOp::Neq, tc(Value::Null)));
        p.rule(
            [atom(aux_pred(index), x_prime.iter().map(|v| tv(v.clone())))],
            body,
        )?;
    }
    if existential_names.is_empty() {
        // Degenerate: no existential variables (classified referential
        // only when ∃ vars exist, so this is unreachable; keep safe).
        let mut body: Vec<BodyLit> = vec![
            pos(atom(annotated(head_name, "ts"), witness_terms.clone())),
            neg(atom(annotated(head_name, "fa"), witness_terms.clone())),
        ];
        body.extend(guards(&x_prime));
        p.rule(
            [atom(aux_pred(index), x_prime.iter().map(|v| tv(v.clone())))],
            body,
        )?;
    }

    // Corrected style: fact-based witness rule covering pre-existing
    // witnesses with all-null existential attributes.
    if style == ProgramStyle::Corrected {
        let mut body: Vec<BodyLit> = vec![
            pos(atom(head_name.to_string(), witness_terms.clone())),
            neg(atom(annotated(head_name, "fa"), witness_terms.clone())),
        ];
        body.extend(guards(&x_prime));
        p.rule(
            [atom(aux_pred(index), x_prime.iter().map(|v| tv(v.clone())))],
            body,
        )?;
    }
    Ok(())
}

fn to_asp_op(op: cqa_constraints::CmpOp) -> BuiltinOp {
    match op {
        cqa_constraints::CmpOp::Eq => BuiltinOp::Eq,
        cqa_constraints::CmpOp::Neq => BuiltinOp::Neq,
        cqa_constraints::CmpOp::Lt => BuiltinOp::Lt,
        cqa_constraints::CmpOp::Leq => BuiltinOp::Leq,
        cqa_constraints::CmpOp::Gt => BuiltinOp::Gt,
        cqa_constraints::CmpOp::Geq => BuiltinOp::Geq,
    }
}

/// Extract the database instance `D_M` associated with a stable model
/// (Definition 10): the atoms annotated `t**`.
pub fn extract_instance(
    schema: &std::sync::Arc<Schema>,
    program: &Program,
    gp: &cqa_asp::GroundProgram,
    model: &cqa_asp::stable::Model,
) -> Result<Instance, CoreError> {
    extract(schema, None, program, gp, model)
}

/// Like [`extract_instance`], but relations without a `t**` predicate in
/// the program (pruned, unconstrained relations) are copied verbatim from
/// the original instance — they cannot change in any repair. A row the
/// repair keeps from `base` shares `base`'s tuple (a reference-count
/// bump), so the repairs of one instance hold one copy of the rows they
/// share, and dropping them frees no tuple that `base` still holds.
pub fn extract_instance_with_base(
    base: &Instance,
    program: &Program,
    gp: &cqa_asp::GroundProgram,
    model: &cqa_asp::stable::Model,
) -> Result<Instance, CoreError> {
    let schema = base.schema();
    let mut inst = extract(schema, Some(base), program, gp, model)?;
    for (rel, decl) in schema.iter() {
        if program.pred_id(&annotated(decl.name(), "tss")).is_none() {
            for t in base.relation(rel) {
                inst.insert(rel, t.clone())?;
            }
        }
    }
    Ok(inst)
}

/// The `t**` atoms of `model` as an instance; a row found in `base` is
/// taken from it rather than allocated anew.
fn extract(
    schema: &std::sync::Arc<Schema>,
    base: Option<&Instance>,
    program: &Program,
    gp: &cqa_asp::GroundProgram,
    model: &cqa_asp::stable::Model,
) -> Result<Instance, CoreError> {
    // Map tss predicate ids back to relations.
    let mut tss_to_rel: BTreeMap<cqa_asp::PredId, RelId> = BTreeMap::new();
    for (rel, decl) in schema.iter() {
        if let Some(pid) = program.pred_id(&annotated(decl.name(), "tss")) {
            tss_to_rel.insert(pid, rel);
        }
    }
    let mut inst = Instance::empty(schema.clone());
    for &atom_id in model {
        let ga = gp.atom(atom_id);
        if let Some(&rel) = tss_to_rel.get(&ga.pred) {
            let kept = base.and_then(|b| b.relation(rel).get(ga.args.as_slice()));
            let tuple = kept.map_or_else(|| Tuple::new(ga.args.iter().cloned()), Tuple::clone);
            inst.insert(rel, tuple)?;
        }
    }
    Ok(inst)
}

/// The repairs of `d` according to the stable models of Π(D, IC)
/// (Theorem 4: for RIC-acyclic IC these are exactly the repairs), over
/// an optionally pruned program ([`repair_program_with`]). Distinct
/// stable models can map to the same instance only in the paper-exact
/// corner cases; the result is de-duplicated and sorted. One-shot: a
/// fresh [`CqaCaches`] bundle and no deadline.
pub fn repairs_via_program(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    prune_untouched: bool,
) -> Result<Vec<Instance>, CoreError> {
    repairs_via_program_governed(
        d,
        ics,
        style,
        prune_untouched,
        &CqaCaches::new(),
        &CancelToken::never(),
    )
}

/// [`repairs_via_program`] against the caller's cache bundle and under a
/// cancellation token. Grounding goes through the bundle's
/// [`crate::cache::GroundingCache`]: a repeat call over an unchanged
/// instance reuses the ground program, and any bounded drift —
/// insertions, deletions, or both — regrounds incrementally. The stable
/// models come from the incremental resolve path: the ground program is
/// split into connected components, unchanged components are answered
/// from the [`cqa_asp::SolverState`] paired with the cached grounding,
/// and only changed components are re-solved (reusing learned clauses
/// whose rule premises survived). The token is polled by the grounding
/// loops ([`CoreError::Interrupted`] with
/// `Grounding`), the CDCL stable-model enumeration, and the per-model
/// extraction (both `ModelEnumeration`, `partial` counting models fully
/// processed).
pub fn repairs_via_program_governed(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    prune_untouched: bool,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<Instance>, CoreError> {
    let (state, solver) =
        caches
            .grounding
            .entry_for_governed(d, ics, style, prune_untouched, cancel)?;
    let gp = state.ground_program();
    let mut solver = solver.lock().expect("solver state lock");
    let models = resolve_on_state(&state, &mut solver, cancel).map_err(|e| match e {
        AspError::Interrupted { partial, .. } => CoreError::Interrupted {
            phase: InterruptPhase::ModelEnumeration,
            partial,
        },
        other => CoreError::Asp(other),
    })?;
    drop(solver);
    let mut repairs = Vec::with_capacity(models.len());
    for m in &models {
        if cancel.is_cancelled() {
            return Err(CoreError::Interrupted {
                phase: InterruptPhase::ModelEnumeration,
                partial: repairs.len(),
            });
        }
        repairs.push(extract_instance_with_base(d, state.program(), gp, m)?);
    }
    // Free the models before the keys exist, so the two never share
    // the peak.
    drop(models);
    // Each repair keyed by its atom list, collected once. Equal lists
    // mean equal instances, so sorting on the key and dropping equal
    // neighbours both orders and de-duplicates.
    let mut keyed: Vec<(Vec<DatabaseAtom>, Instance)> = repairs
        .into_iter()
        .map(|inst| (inst.atoms().collect(), inst))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.dedup_by(|a, b| a.0 == b.0);
    Ok(keyed.into_iter().map(|(_, inst)| inst).collect())
}

/// The argument type of [`repairs_via_program_solved`]. It has no field:
/// the program route solves on the calling thread. Kept so that
/// `perfbench/`, which calls [`repairs_via_program_solved`] with
/// `SolveOptions::default()`, builds unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions;

/// [`repairs_via_program_governed`]; `SolveOptions` selects nothing. Kept
/// for `perfbench/`'s call, like [`SolveOptions`].
pub fn repairs_via_program_solved(
    d: &Instance,
    ics: &IcSet,
    style: ProgramStyle,
    prune_untouched: bool,
    _opts: SolveOptions,
    caches: &CqaCaches,
    cancel: &CancelToken,
) -> Result<Vec<Instance>, CoreError> {
    repairs_via_program_governed(d, ics, style, prune_untouched, caches, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{builders, v};
    use cqa_relational::{display::instance_set, null, s, Instance, Schema};
    use std::sync::Arc;

    fn inst(sc: &Arc<Schema>, rows: &[(&str, Vec<Value>)]) -> Instance {
        let mut d = Instance::empty(sc.clone());
        for (rel, vals) in rows {
            d.insert_named(rel, Tuple::new(vals.clone())).unwrap();
        }
        d
    }

    fn sets(repairs: &[Instance]) -> Vec<String> {
        repairs.iter().map(instance_set).collect()
    }

    /// Example 19/21/23 setup: key R\[1\], FK S\[2\] → R\[1\], NNC on R\[1\].
    fn example19() -> (Arc<Schema>, Instance, IcSet) {
        let sc = Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U", "V"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("R", vec![s("a"), s("b")]),
                ("R", vec![s("a"), s("c")]),
                ("S", vec![s("e"), s("f")]),
                ("S", vec![null(), s("a")]),
            ],
        );
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        ics.push(builders::not_null(&sc, "R", 0).unwrap());
        (sc, d, ics)
    }

    #[test]
    fn example21_program_shape() {
        let (_, d, ics) = example19();
        let program = repair_program(&d, &ics, ProgramStyle::PaperExact).unwrap();
        let text = program.to_string();
        // Facts.
        assert!(text.contains("R(a, b)."));
        assert!(text.contains("S(null, a)."));
        // Key rule (rule 2): disjunctive deletion head with inequality.
        assert!(text.contains("R_fa("));
        // FK rule (rule 3): disjunctive fa/ta with aux.
        assert!(text.contains("not aux__1("));
        assert!(text.contains("R_ta("));
        // NNC rule (rule 4).
        assert!(text.contains("= null"));
        // Annotation rules (5, 6) and denial (7).
        assert!(text.contains("R_ts(x0, x1) :- R(x0, x1)."));
        assert!(text.contains("R_tss(x0, x1) :- R_ts(x0, x1), not R_fa(x0, x1)."));
        assert!(text.contains(":- R_ta(x0, x1), R_fa(x0, x1)."));
    }

    #[test]
    fn example23_four_stable_models_match_example19_repairs() {
        let (_, d, ics) = example19();
        for style in [ProgramStyle::PaperExact, ProgramStyle::Corrected] {
            let reps = repairs_via_program(&d, &ics, style, false).unwrap();
            let rendered = sets(&reps);
            assert_eq!(reps.len(), 4, "{style:?}: {rendered:?}");
            assert!(rendered.contains(&"{R(a, b), R(f, null), S(null, a), S(e, f)}".to_string()));
            assert!(rendered.contains(&"{R(a, c), R(f, null), S(null, a), S(e, f)}".to_string()));
            assert!(rendered.contains(&"{R(a, b), S(null, a)}".to_string()));
            assert!(rendered.contains(&"{R(a, c), S(null, a)}".to_string()));
        }
    }

    #[test]
    fn theorem4_program_agrees_with_engine_on_example19() {
        let (_, d, ics) = example19();
        let via_program = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        let via_engine = crate::engine::repairs(&d, &ics, Default::default()).unwrap();
        assert_eq!(via_program, via_engine);
    }

    #[test]
    fn program_repairs_share_the_rows_they_keep() {
        let (_, d, ics) = example19();
        let reps = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        let (mut kept, mut inserted) = (0, 0);
        for rep in &reps {
            for atom in rep.atoms() {
                match d.relation(atom.rel).get(atom.tuple.values()) {
                    Some(row) => {
                        assert!(std::ptr::eq(row.values(), atom.tuple.values()), "{atom:?}");
                        kept += 1;
                    }
                    None => inserted += 1,
                }
            }
        }
        // The four repairs keep 3 + 3 + 2 + 2 rows of D, and two of them
        // insert R(f, null).
        assert_eq!((kept, inserted), (10, 2));
    }

    #[test]
    fn example22_partition_rule_count() {
        // IC: P(x,y) → R(x) ∨ S(y) (+ NNC on P[2]); Definition 9 generates
        // 2² = 4 partition rules for the UIC.
        let sc = Schema::builder()
            .relation("P", ["A", "B"])
            .relation("R", ["X"])
            .relation("S", ["Y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[("P", vec![s("a"), s("b")]), ("P", vec![s("c"), null()])],
        );
        let uic = cqa_constraints::Ic::builder(&sc, "uic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("R", [v("x")])
            .head_atom("S", [v("y")])
            .finish()
            .unwrap();
        let mut ics = IcSet::default();
        ics.push(uic);
        ics.push(builders::not_null(&sc, "P", 1).unwrap());
        let program = repair_program(&d, &ics, ProgramStyle::PaperExact).unwrap();
        let text = program.to_string();
        // Count partition rules: lines containing both P_fa( head and P_ts body.
        let partition_rules = text
            .lines()
            .filter(|l| l.contains("P_fa(x") && l.contains("P_ts(x") && l.contains("R_ta"))
            .count();
        assert_eq!(partition_rules, 4);
        // And the program computes the right repairs: P(c,null) violates
        // the NNC (deleted in every repair); P(a,b) needs R(a) or S(b) or
        // deletion.
        let reps = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        let rendered = sets(&reps);
        assert_eq!(reps.len(), 3, "{rendered:?}");
        assert!(rendered.contains(&"{}".to_string()));
        assert!(rendered.contains(&"{P(a, b), R(a)}".to_string()));
        assert!(rendered.contains(&"{P(a, b), S(b)}".to_string()));
    }

    #[test]
    fn erratum_all_null_witness_styles_differ() {
        // D = {S(u,a), R(a,null)} with S(u,v) → ∃y R(v,y): consistent per
        // Definition 4 (R(a,null) witnesses), so the only repair is D.
        let sc = Schema::builder()
            .relation("S", ["U", "V"])
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[("S", vec![s("u"), s("a")]), ("R", vec![s("a"), null()])],
        );
        let mut ics = IcSet::default();
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        assert!(cqa_constraints::is_consistent(&d, &ics));

        let corrected = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        assert_eq!(sets(&corrected), vec![instance_set(&d)]);

        let paper = repairs_via_program(&d, &ics, ProgramStyle::PaperExact, false).unwrap();
        // Paper-exact: a spurious deletion model appears alongside D.
        assert_eq!(paper.len(), 2, "{:?}", sets(&paper));
        assert!(paper.contains(&d));
    }

    #[test]
    fn insertion_branch_is_stable_in_both_styles() {
        // D = {S(u,a)}: both styles must offer insertion of R(a, null) and
        // deletion of S(u,a) — the stability subtlety the yᵢ ≠ null guard
        // exists for.
        let sc = Schema::builder()
            .relation("S", ["U", "V"])
            .relation("R", ["X", "Y"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(&sc, &[("S", vec![s("u"), s("a")])]);
        let mut ics = IcSet::default();
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        for style in [ProgramStyle::PaperExact, ProgramStyle::Corrected] {
            let reps = repairs_via_program(&d, &ics, style, false).unwrap();
            let rendered = sets(&reps);
            assert_eq!(reps.len(), 2, "{style:?}: {rendered:?}");
            assert!(rendered.contains(&"{}".to_string()));
            assert!(rendered.contains(&"{S(u, a), R(a, null)}".to_string()));
        }
    }

    #[test]
    fn general_existential_rejected() {
        // Example 13 shape: repeated existential variable.
        let sc = Schema::builder()
            .relation("P", ["A", "B"])
            .relation("Q", ["X", "Y", "Z"])
            .finish()
            .unwrap()
            .into_shared();
        let d = Instance::empty(sc.clone());
        let ic = cqa_constraints::Ic::builder(&sc, "rep")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("Q", [v("x"), v("z"), v("z")])
            .finish()
            .unwrap();
        let mut ics = IcSet::default();
        ics.push(ic);
        assert!(matches!(
            repair_program(&d, &ics, ProgramStyle::Corrected),
            Err(CoreError::UnsupportedByProgram { .. })
        ));
    }

    #[test]
    fn pruned_program_smaller_but_equivalent() {
        // Schema with an extra, unconstrained relation: pruning drops its
        // rules 5–7 yet the repairs are identical (the relation passes
        // through untouched).
        let sc = Schema::builder()
            .relation("R", ["X", "Y"])
            .relation("S", ["U", "V"])
            .relation("Audit", ["who", "what"])
            .finish()
            .unwrap()
            .into_shared();
        let d = inst(
            &sc,
            &[
                ("R", vec![s("a"), s("b")]),
                ("R", vec![s("a"), s("c")]),
                ("S", vec![null(), s("a")]),
                ("Audit", vec![s("alice"), s("read")]),
                ("Audit", vec![s("bob"), null()]),
            ],
        );
        let mut ics = IcSet::default();
        ics.push(builders::functional_dependency(&sc, "R", &[0], 1).unwrap());
        ics.push(builders::foreign_key(&sc, "S", &[1], "R", &[0]).unwrap());
        let full = repair_program(&d, &ics, ProgramStyle::Corrected).unwrap();
        let pruned = repair_program_with(&d, &ics, ProgramStyle::Corrected, true).unwrap();
        assert!(pruned.rules().len() < full.rules().len());
        let via_full = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        let via_pruned = repairs_via_program(&d, &ics, ProgramStyle::Corrected, true).unwrap();
        assert_eq!(via_full, via_pruned);
        // Audit rows survive in every repair.
        for r in &via_pruned {
            assert_eq!(r.relation_named("Audit").unwrap().len(), 2);
        }
    }

    #[test]
    fn consistent_database_single_model() {
        let (sc, _, ics) = example19();
        let d = inst(
            &sc,
            &[("R", vec![s("a"), s("b")]), ("S", vec![s("e"), s("a")])],
        );
        let reps = repairs_via_program(&d, &ics, ProgramStyle::Corrected, false).unwrap();
        assert_eq!(reps, vec![d]);
    }
}
