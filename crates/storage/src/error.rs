//! Storage-layer errors.

use std::fmt;
use std::io;

/// Errors surfaced by the durability layer.
///
/// The deliberate asymmetry: a *torn or corrupt WAL tail* is **not** an
/// error — recovery truncates it and reports the drop through
/// [`crate::RecoveryReport`], because a tail mangled by a crash is the
/// expected steady state of a write-ahead log. `Corrupt` is reserved for
/// damage recovery cannot round past: a snapshot whose checksum fails, a
/// file that is not a store at all.
#[derive(Debug)]
pub enum StorageError {
    /// An OS-level I/O failure.
    Io(io::Error),
    /// A file exists but its content is not a valid store artifact
    /// (wrong magic, failed checksum, truncated section). Carries what
    /// was being decoded and why it failed.
    Corrupt {
        /// Which artifact or section was being decoded.
        what: &'static str,
        /// Why decoding failed.
        detail: String,
    },
    /// The store directory has no snapshot to open.
    NotAStore(std::path::PathBuf),
    /// Creating a store where one already exists.
    AlreadyExists(std::path::PathBuf),
    /// The persisted constraint set failed to re-validate against the
    /// persisted schema (only possible if the files were edited by hand).
    Constraint(cqa_constraints::ConstraintError),
    /// The persisted tuples failed to re-validate against the persisted
    /// schema (only possible if the files were edited by hand).
    Relational(cqa_relational::RelationalError),
    /// An earlier append failed and its frame could not be cut back out
    /// of the WAL, so this handle refuses every later append. Reopening
    /// the store recovers the durable state.
    Poisoned,
}

impl StorageError {
    /// Shorthand for a corruption error.
    pub(crate) fn corrupt(what: &'static str, detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            what,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
            StorageError::NotAStore(p) => {
                write!(f, "{} is not a store (no snapshot file)", p.display())
            }
            StorageError::AlreadyExists(p) => {
                write!(f, "a store already exists at {}", p.display())
            }
            StorageError::Constraint(e) => write!(f, "persisted constraint invalid: {e}"),
            StorageError::Relational(e) => write!(f, "persisted instance invalid: {e}"),
            StorageError::Poisoned => write!(
                f,
                "an earlier failed append could not be rolled back; this handle refuses appends"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<cqa_constraints::ConstraintError> for StorageError {
    fn from(e: cqa_constraints::ConstraintError) -> Self {
        StorageError::Constraint(e)
    }
}

impl From<cqa_relational::RelationalError> for StorageError {
    fn from(e: cqa_relational::RelationalError) -> Self {
        StorageError::Relational(e)
    }
}
