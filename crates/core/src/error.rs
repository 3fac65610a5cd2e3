//! Error type for the repair and CQA layers.

use std::fmt;

/// Errors raised by repair enumeration, program generation and CQA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The constraint set has conflicting NOT NULL / existential
    /// interactions (Example 20) and the chosen semantics requires the
    /// paper's non-conflicting assumption. The pairs are
    /// `(tgd index, nnc index)` into the constraint set.
    ConflictingConstraints(Vec<(usize, usize)>),
    /// A constraint falls outside the class handled by Definition 9
    /// programs (UICs, RICs, NNCs) — e.g. a repeated existential variable
    /// or a disjunctive head with existentials.
    UnsupportedByProgram {
        /// Constraint name.
        constraint: String,
        /// Why it is unsupported.
        reason: String,
    },
    /// The search exceeded its node budget (the repair space is
    /// exponential in the number of interacting violations).
    BudgetExceeded {
        /// The configured budget.
        budget: usize,
    },
    /// A relational-layer error (arity mismatches and the like).
    Relational(cqa_relational::RelationalError),
    /// An ASP-layer error surfaced during program construction.
    Asp(cqa_asp::AspError),
    /// The repair program unexpectedly has no stable models (cannot
    /// happen for non-conflicting sets; indicates a malformed program).
    NoStableModels,
    /// A query failed validation (safety, arity, unknown relation).
    InvalidQuery(String),
    /// A cancellation token (deadline or manual cancel) tripped while an
    /// engine was running. `partial` counts the *sound* intermediate
    /// results completed before the interrupt — see [`InterruptPhase`]
    /// for what each phase counts. The computation's caller-visible state
    /// is unchanged; retrying with a larger deadline is always safe.
    Interrupted {
        /// Which engine observed the cancellation.
        phase: InterruptPhase,
        /// Sound intermediate results completed before the interrupt.
        partial: usize,
    },
}

/// Which engine loop a [`CoreError::Interrupted`] surfaced from, and what
/// its `partial` count means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptPhase {
    /// Grounding the repair program. `partial` is always 0: a partial
    /// grounding supports no sound conclusions and is discarded.
    Grounding,
    /// The repair search tree walk. `partial` counts minimal-candidate
    /// repairs collected so far — an under-approximation of the repair
    /// set, pending the final minimality cross-check.
    RepairSearch,
    /// Stable-model enumeration on the program route. `partial` counts
    /// models fully enumerated and verified stable; each is a genuine
    /// repair candidate even though the enumeration is incomplete.
    ModelEnumeration,
    /// Per-repair query evaluation during consistent-answer
    /// intersection. `partial` counts repairs whose answers were fully
    /// intersected (the running intersection over-approximates until
    /// every repair is seen, so it is not returned).
    QueryEvaluation,
}

impl fmt::Display for InterruptPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptPhase::Grounding => write!(f, "grounding"),
            InterruptPhase::RepairSearch => write!(f, "repair search"),
            InterruptPhase::ModelEnumeration => write!(f, "stable-model enumeration"),
            InterruptPhase::QueryEvaluation => write!(f, "query evaluation"),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ConflictingConstraints(pairs) => write!(
                f,
                "constraint set is conflicting (NOT NULL on an existential attribute) at pairs {pairs:?}; \
                 use RepairSemantics::DeletionPreferring or drop the NNC"
            ),
            CoreError::UnsupportedByProgram { constraint, reason } => {
                write!(f, "constraint `{constraint}` not expressible as a Definition-9 repair program: {reason}")
            }
            CoreError::BudgetExceeded { budget } => {
                write!(f, "repair search exceeded its node budget of {budget}")
            }
            CoreError::Relational(e) => write!(f, "relational error: {e}"),
            CoreError::Asp(e) => write!(f, "logic-program error: {e}"),
            CoreError::NoStableModels => write!(f, "repair program has no stable models"),
            CoreError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            CoreError::Interrupted { phase, partial } => {
                write!(
                    f,
                    "interrupted during {phase} ({partial} sound partial results)"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<cqa_relational::RelationalError> for CoreError {
    fn from(e: cqa_relational::RelationalError) -> Self {
        CoreError::Relational(e)
    }
}

impl From<cqa_asp::AspError> for CoreError {
    fn from(e: cqa_asp::AspError) -> Self {
        CoreError::Asp(e)
    }
}
