#![warn(missing_docs)]

//! # cqa-asp
//!
//! A from-scratch disjunctive logic-programming engine with stable-model
//! semantics — the substrate the paper (Bravo & Bertossi, EDBT 2006,
//! Section 5) runs its repair programs on. The paper uses the DLV system;
//! this crate implements the required fragment natively:
//!
//! * function-free disjunctive rules with default negation and builtin
//!   comparisons (`=`, `≠`, `<`, `≤`, `>`, `≥`) over a finite domain;
//! * program denials (rules with empty heads);
//! * intelligent grounding (possibly-true fixpoint, then rule
//!   instantiation with negative literals resolved against the fixpoint);
//! * enumeration of **stable models** (Gelfond & Lifschitz): classical
//!   models are enumerated by a small DPLL engine over the rule clauses
//!   plus Clark-style support clauses (every true atom needs a supporting
//!   rule whose other head atoms are false), then each candidate passes a
//!   GL-reduct minimality test;
//! * cautious and brave consequences (cautious reasoning is what turns
//!   repair programs into consistent query answering);
//! * head-cycle-freeness (Ben-Eliyahu & Dechter) on the ground dependency
//!   graph, and the shift transformation `sh(Π)` to non-disjunctive
//!   programs (the paper's Section 6);
//! * a polynomial least-model fast path for the stability test of
//!   non-disjunctive programs — the concrete source of the complexity drop
//!   in Corollary 1.
//!
//! The engine is deliberately deterministic: atoms, rules and models are
//! kept and reported in stable orders so that repair enumeration and tests
//! are reproducible.

pub mod display;
pub mod error;
pub mod ground;
pub mod hcf;
pub mod resolve;
pub mod solve;
pub mod stable;
pub mod syntax;

pub use error::AspError;
pub use ground::{
    ground, ground_cancellable, AtomId, GroundAtom, GroundProgram, GroundRule, GroundingState,
};
pub use hcf::{is_hcf, shift};
pub use resolve::{resolve_on_state, ComponentModels, SolverState, SolverStateStats};
pub use stable::{
    brave_consequences, cautious_consequences, cautious_consequences_cancellable, is_stable,
    is_stable_cancellable, stable_models, stable_models_cancellable,
};
pub use syntax::{
    atom, cmp, neg, pos, tc, tv, AtomSpec, BodyLit, BuiltinOp, PredId, Program, Rule, TermSpec,
};
