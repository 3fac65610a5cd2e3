#![warn(missing_docs)]

//! # cqa-relational
//!
//! Relational substrate for the *nullcqa* workspace: domain values including
//! the SQL-style `null`, relation schemas, tuples, relations, database
//! instances, active domains and symmetric differences (Δ).
//!
//! This crate corresponds to the preliminaries of Bravo & Bertossi,
//! *Semantically Correct Query Answers in the Presence of Null Values*
//! (EDBT 2006), Section 2: a fixed relational schema `Σ = (U, R, B)` where
//! the possibly infinite domain `U` contains the distinguished constant
//! `null`, and a database instance is a finite set of ground atoms.
//!
//! Design notes:
//! * A single `null` constant is used, as in commercial DBMSs (Section 3 of
//!   the paper); there are no labelled nulls. The unique-names assumption is
//!   *not* applied to `null` by higher layers except where the paper demands
//!   treating it "as any other constant" (Definition 4).
//! * String constants are globally interned ([`symbol`]): `Value` is `Copy`
//!   and value equality/hashing — the operations the index probes and join
//!   pins live on — are integer comparisons, independent of string length.
//! * Relations are **sets** of tuples (the paper sets aside SQL's bag
//!   semantics, Example 7).
//! * Ordered containers (`BTreeSet`/`BTreeMap`) are used throughout so that
//!   enumeration order — and therefore repair enumeration, program grounding
//!   and test output — is deterministic.

pub mod atom;
pub mod cancel;
pub mod diff;
pub mod display;
pub mod error;
pub mod index;
pub mod instance;
pub mod join;
pub mod schema;
pub mod symbol;
pub mod testing;
pub mod tuple;
pub mod value;

pub use atom::DatabaseAtom;
pub use cancel::{CancelToken, Cancelled};
pub use diff::{delta, repair_order, Delta, InstanceDelta};
pub use error::RelationalError;
pub use index::{Candidates, ColsKey, ColumnIndex, CompositeIndex, IndexBuild};
pub use instance::{Instance, Relation};
pub use join::{BodyAtom, Join, Matched, Order, Slot, Source};
pub use schema::{RelId, RelationSchema, Schema, SchemaBuilder};
pub use symbol::Symbol;
pub use tuple::Tuple;
pub use value::Value;

/// Convenience constructor for a string [`Value`].
pub fn s(v: &str) -> Value {
    Value::str(v)
}

/// Convenience constructor for an integer [`Value`].
pub fn i(v: i64) -> Value {
    Value::Int(v)
}

/// Convenience constructor for the `null` [`Value`].
pub fn null() -> Value {
    Value::Null
}
