#![warn(missing_docs)]

//! # cqa-core
//!
//! The core contribution of Bravo & Bertossi, *Semantically Correct Query
//! Answers in the Presence of Null Values* (EDBT 2006): null-aware database
//! repairs and consistent query answering.
//!
//! * [`repair`] — the `≤_D` repair order (Definition 6), repair checking
//!   (Theorem 1's decision problem), and `≤_D`-minimisation.
//! * [`engine`] — repair enumeration (Definition 7) by violation-driven
//!   decision search: each branch deletes a ground body atom or inserts a
//!   consequent atom with `null` at the existential positions; decisions
//!   never flip (mirroring the program denial `← P(t_a), P(f_a)`).
//! * [`bruteforce`] — an exhaustive oracle over the Proposition-1 candidate
//!   space (`adom(D) ∪ const(IC) ∪ {null}`), used to validate the engine.
//! * [`classic`] — the pre-null repair semantics of Arenas, Bertossi &
//!   Chomicki 1999 (\[2\] in the paper), parameterised by an explicit finite
//!   domain; the baseline of Examples 14/15.
//! * [`program`] — the repair logic programs Π(D, IC) of Definition 9 with
//!   annotation constants `t_a`, `f_a`, `t*`, `t**`, in both the paper's
//!   exact form and a corrected form (see `ProgramStyle`), plus the
//!   stable-model → repair extraction of Definition 10 (Theorem 4).
//! * [`query`] — safe conjunctive queries with negation and builtins, and
//!   unions thereof, evaluated with null as an ordinary constant.
//! * [`cqa`] — consistent answers (Definition 8): by repair intersection
//!   and by cautious reasoning over Π(D, IC) plus query rules.
//! * [`cache`] — the caller-owned [`CqaCaches`] bundle (root violation
//!   scans, groundings, planner counters). Every operation has a one-shot
//!   form that builds a fresh bundle and runs without a deadline, and a
//!   `*_governed` form that takes the caller's bundle and
//!   [`cqa_relational::CancelToken`].
//! * [`plan`] — the fast-path planner: classifies each
//!   `(IcSet, query, semantics)` request and answers it without repair
//!   enumeration when a polynomial route is sound (see its decision
//!   table); [`rewrite`] is the FO-rewrite route for key FDs, [`chase`]
//!   the true/false-tuple classification for deletion-only sets.
//! * [`nonconflict`] — the non-conflicting-IC assumption and the
//!   deletion-preferring `Rep_d` semantics of Example 20.

pub mod bruteforce;
pub mod cache;
pub mod chase;
pub mod classic;
pub mod cqa;
pub mod engine;
pub mod error;
pub mod nonconflict;
pub mod plan;
pub mod program;
pub mod query;
pub mod repair;
pub mod rewrite;

pub use cache::{
    warm_caches_in, CqaCaches, GroundingCache, GroundingCacheStats, WorklistCache,
    WorklistCacheStats,
};
pub use cqa::{
    consistent_answers, consistent_answers_enumerated, consistent_answers_enumerated_governed,
    consistent_answers_governed, consistent_answers_via_program,
    consistent_answers_via_program_governed, AnswerSet,
};
pub use cqa_asp::SolverStateStats;
pub use engine::{
    repairs, repairs_with_config_governed, repairs_with_trace, repairs_with_trace_governed,
    RepairAction, RepairConfig, RepairSemantics, RepairStep, TracedRepair,
};
pub use error::{CoreError, InterruptPhase};
pub use plan::{plan_query, DeclineReason, PlanRoute, PlannerCounters, PlannerStats, QueryPlan};
pub use program::{
    repair_program, repair_program_with, repairs_via_program, repairs_via_program_governed,
    repairs_via_program_solved, ProgramStyle, SolveOptions,
};
pub use query::{AnswerSemantics, QueryNullSemantics};
pub use query::{ConjunctiveQuery, Query, QueryBuilder};
pub use repair::{is_repair, leq_d, lt_d, minimal_delta_indices, minimize_candidates};
