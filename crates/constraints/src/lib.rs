#![warn(missing_docs)]

//! # cqa-constraints
//!
//! Integrity constraints and the null-value satisfaction semantics `|=_N`
//! of Bravo & Bertossi, *Semantically Correct Query Answers in the Presence
//! of Null Values* (EDBT 2006).
//!
//! What lives here:
//!
//! * [`ast`] — the general constraint form (1) of the paper
//!   (`∀x̄ (∧ᵢ Pᵢ(x̄ᵢ) → ∃z̄ (∨ⱼ Qⱼ(ȳⱼ, z̄ⱼ) ∨ ϕ))`), NOT NULL constraints
//!   (Definition 5), validation, and a builder.
//! * [`builders`] — practice-level constructors: primary keys, functional
//!   dependencies, foreign keys / referential constraints, inclusion
//!   dependencies, check constraints, denial constraints.
//! * [`classify`] — the paper's syntactic classes: universal ICs (2),
//!   referential ICs (3), denials, checks.
//! * [`relevant`] — relevant attributes `A(ψ)` (Definition 2) and the
//!   projections `D^A` (Definition 3).
//! * [`satisfaction`] — `D |=_N ψ` (Definition 4) evaluated directly on the
//!   instance, plus the literal projection-based checker used as a
//!   cross-check, plus classical first-order satisfaction.
//! * [`alt`] — the competing null semantics the paper compares against:
//!   the all-null-tolerant semantics of Bravo & Bertossi 2004 (\[10\] in the
//!   paper), SQL:2003 simple/partial/full match for referential
//!   constraints, and the Levene–Loizou information-order semantics.
//! * [`graph`] — the dependency graph `G(IC)`, the contracted graph
//!   `G^C(IC)`, RIC-acyclicity (Definition 1), and the bilateral-predicate
//!   test of Theorem 5.
//! * [`incremental`] — index-probed joins and the delta API
//!   ([`violations_touching`], [`violation_active`]): re-check only the
//!   ground instantiations an atom-level change can affect, so repair
//!   search cost scales with conflict size rather than instance size.

pub mod alt;
pub mod ast;
pub mod builders;
pub mod classify;
pub mod error;
pub mod graph;
pub mod incremental;
pub mod relevant;
pub mod satisfaction;

pub use ast::{
    c, v, Builtin, CmpOp, Constraint, Ic, IcAtom, IcBuilder, IcSet, Nnc, Term, TermSpec, VarId,
};
pub use classify::{fd_key_columns, plan_class, FdKey, IcClass, PlanClass};
pub use error::ConstraintError;
pub use graph::{contracted_dependency_graph, dependency_graph, DependencyGraph};
pub use incremental::{violation_active, violations_touching};
pub use relevant::RelevantAttrs;
pub use satisfaction::{
    check_instance, first_violation, insertion_allowed, is_consistent, satisfies_via_projection,
    violations, violations_naive, SatMode, Violation, ViolationKind,
};
