#![warn(missing_docs)]

//! # cqa — consistent query answering with null values
//!
//! A complete, from-scratch implementation of
//!
//! > Loreto Bravo and Leopoldo Bertossi.
//! > *Semantically Correct Query Answers in the Presence of Null Values.*
//! > EDBT 2006 workshops / arXiv cs/0604076.
//!
//! An inconsistent database still contains mostly-consistent data. This
//! library answers queries *consistently* — returning exactly the answers
//! that hold in **every** minimal repair of the database — under a
//! null-value semantics that matches what commercial DBMSs actually do
//! with `NULL`, and that repairs referential constraints by inserting
//! `null` rather than inventing values.
//!
//! ## Quick start
//!
//! ```
//! use cqa::Database;
//!
//! let mut db = Database::from_script(
//!     "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
//!      CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
//!      INSERT INTO r VALUES ('a', 'b'), ('a', 'c');   -- key violation
//!      INSERT INTO s VALUES ('e', 'f'), (NULL, 'a');  -- dangling FK
//!     ",
//! )
//! .unwrap();
//! assert!(!db.is_consistent());
//! assert_eq!(db.repairs().unwrap().len(), 4); // the paper's Example 19
//!
//! // 'a' appears as a referenced key in every repair:
//! let answers = db.consistent_answers("q(v) :- s(u, v).").unwrap();
//! assert_eq!(answers.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Paper sections |
//! |-------|-------|----------------|
//! | values, schemas, instances, Δ | [`relational`] | §2 |
//! | constraints, `A(ψ)`, `⊨_N` | [`constraints`] | §2–3 |
//! | disjunctive ASP engine | [`asp`] | §5–6 substrate |
//! | repairs, Π(D,IC), CQA | [`core`] | §4–6 |
//! | SQL/Datalog front-end | [`sql`] | — |
//!
//! The facade [`Database`] type bundles the common path; drop to the
//! re-exported crates for full control (repair semantics, program styles,
//! alternative null semantics, the classic repair baseline, …).

pub use cqa_asp as asp;
pub use cqa_constraints as constraints;
pub use cqa_core as core;
pub use cqa_relational as relational;
pub use cqa_sql as sql;
pub use cqa_storage as storage;

/// The common imports.
pub mod prelude {
    pub use crate::Database;
    pub use cqa_constraints::{builders, c, v, CmpOp, Constraint, Ic, IcSet, Nnc, SatMode};
    pub use cqa_core::{
        consistent_answers, repairs, AnswerSemantics, ConjunctiveQuery, ProgramStyle, Query,
        QueryNullSemantics, RepairConfig, RepairSemantics,
    };
    pub use cqa_relational::{i, null, s, Instance, Schema, Tuple, Value};
}

use cqa_constraints::IcSet;
use cqa_core::query::AnswerSemantics;
use cqa_core::{CoreError, CqaCaches, ProgramStyle, RepairConfig};
use cqa_relational::{DatabaseAtom, Instance, InstanceDelta, Schema, Tuple};

pub use cqa_relational::CancelToken;
use cqa_storage::{DurableStore, RecoveryReport, StoreOptions, StoreStats};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum Error {
    /// Parse error from the SQL/Datalog front-end.
    Parse(cqa_sql::ParseError),
    /// Repair/CQA-layer error.
    Core(CoreError),
    /// Relational-layer error.
    Relational(cqa_relational::RelationalError),
    /// Durability-layer error (WAL/snapshot I/O or corruption).
    Storage(cqa_storage::StorageError),
    /// Mutation attempted through a clone of a persistent database.
    /// The write role stays with the handle that created or opened the
    /// store; clones are read-only views.
    ReadOnlyClone,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Core(e) => write!(f, "{e}"),
            Error::Relational(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::ReadOnlyClone => write!(
                f,
                "clones of a persistent database are read-only; \
                 mutate through the handle that opened the store"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<cqa_storage::StorageError> for Error {
    fn from(e: cqa_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<cqa_sql::ParseError> for Error {
    fn from(e: cqa_sql::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<CoreError> for Error {
    fn from(e: CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<cqa_relational::RelationalError> for Error {
    fn from(e: cqa_relational::RelationalError) -> Self {
        Error::Relational(e)
    }
}

/// A database with integrity constraints: the high-level entry point.
///
/// Each `Database` owns its [`CqaCaches`] bundle (root-violation
/// worklists, repair-program groundings): many databases in one process
/// cannot evict each other's derived results. Clones share the bundle —
/// they are views of the same tenant.
///
/// ## Durability
///
/// A database created through [`Database::persistent`] or reopened with
/// [`Database::open`] is backed by a [`DurableStore`] (WAL + segmented
/// snapshot): every `insert`/`delete`/`*_many`/`*_all` appends an
/// [`InstanceDelta`] frame — and `add_constraint` a constraint frame —
/// to the write-ahead log *before* mutating, so an acknowledged write
/// survives `kill -9`. Under the default fsync policy each append is
/// fsynced before the call returns. Recovery applies the surviving
/// frames to the snapshot, so a reopened database holds every
/// acknowledged write; its caches start empty and fill on demand, as
/// for [`Database::new`]. [`Database::storage_stats`] exposes the
/// write-path counters.
/// Clones of a *persistent* database are **read-only**: two handles
/// with divergent in-memory views interleaving WAL appends would leave
/// the log describing a state neither handle holds, so the write role
/// stays with the original handle and a clone's `insert`/`delete`/
/// `add_constraint` returns [`Error::ReadOnlyClone`]. Clones still
/// query, and share the cache bundle.
///
/// ## Cancellation and deadlines
///
/// Every engine entry point — repair search, the Π(D, IC) program
/// route, and both CQA pipelines — runs on the calling thread under a
/// cooperative cancellation governor. [`Database::with_deadline`] bounds
/// each call's wall-clock time; [`Database::cancel_handle`] hands out a
/// [`CancelToken`] another thread can trip mid-call. An interrupted call
/// returns [`CoreError::Interrupted`] (wrapped in [`Error::Core`])
/// naming the phase cut short and how many partial results were sound
/// at that point; the database and its caches stay valid — a poisoned
/// in-flight grounding is discarded, never cached.
#[derive(Debug)]
pub struct Database {
    instance: Instance,
    constraints: IcSet,
    config: RepairConfig,
    caches: Arc<CqaCaches>,
    storage: Option<Arc<DurableStore>>,
    recovery: Option<RecoveryReport>,
    /// Does this handle hold the write role for `storage`? Always true
    /// for in-memory databases; cleared on clones of persistent ones.
    writer: bool,
    /// Per-call wall-clock budget; `None` = unbounded.
    deadline: Option<Duration>,
    /// Shared manual-cancel root; clones share it, so tripping the
    /// handle stops in-flight work on every view of this tenant.
    cancel: CancelToken,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            instance: self.instance.clone(),
            constraints: self.constraints.clone(),
            config: self.config,
            caches: self.caches.clone(),
            storage: self.storage.clone(),
            recovery: self.recovery.clone(),
            // The write role does not travel: a clone of a persistent
            // handle is a read-only view of the same tenant.
            writer: self.storage.is_none(),
            deadline: self.deadline,
            // The cancel root *does* travel: cancelling any handle of
            // the tenant stops them all (see `reset_cancel` to detach).
            cancel: self.cancel.clone(),
        }
    }
}

impl Database {
    /// Build from a SQL script (see [`cqa_sql::parse_script`] for the
    /// grammar).
    pub fn from_script(script: &str) -> Result<Self, Error> {
        let catalog = cqa_sql::parse_script(script)?;
        Ok(Database::new(catalog.instance, catalog.constraints))
    }

    /// Build from parts.
    pub fn new(instance: Instance, constraints: IcSet) -> Self {
        Database {
            instance,
            constraints,
            config: RepairConfig::default(),
            caches: Arc::new(CqaCaches::new()),
            storage: None,
            recovery: None,
            writer: true,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// Create a durable database at `path` (a directory) seeded with
    /// `instance` and `constraints`, with default [`StoreOptions`]
    /// (fsync on every write, 1:1 compaction fraction). Fails if `path`
    /// already holds a store.
    pub fn persistent(
        path: impl AsRef<Path>,
        instance: Instance,
        constraints: IcSet,
    ) -> Result<Self, Error> {
        Database::persistent_with(path, instance, constraints, StoreOptions::default())
    }

    /// [`Database::persistent`] with explicit [`StoreOptions`] (fsync
    /// policy, compaction fraction and floor).
    pub fn persistent_with(
        path: impl AsRef<Path>,
        instance: Instance,
        constraints: IcSet,
        options: StoreOptions,
    ) -> Result<Self, Error> {
        Database::persistent_with_vfs(
            path,
            instance,
            constraints,
            options,
            Arc::new(cqa_storage::RealVfs),
        )
    }

    /// [`Database::persistent_with`] against an explicit
    /// [`Vfs`](cqa_storage::Vfs) — the fault-injection entry point used
    /// by the robustness suite.
    pub fn persistent_with_vfs(
        path: impl AsRef<Path>,
        instance: Instance,
        constraints: IcSet,
        options: StoreOptions,
        vfs: Arc<dyn cqa_storage::Vfs>,
    ) -> Result<Self, Error> {
        let store =
            DurableStore::create_with_vfs(path.as_ref(), &instance, &constraints, options, vfs)?;
        let mut db = Database::new(instance, constraints);
        db.storage = Some(Arc::new(store));
        Ok(db)
    }

    /// Reopen the durable database at `path` with default
    /// [`StoreOptions`]: load the snapshot and replay surviving WAL
    /// frames (truncating any torn tail). Nothing is grounded or
    /// scanned; the caches start empty, as for [`Database::new`].
    /// [`Database::recovery_report`] says what recovery found.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        Database::open_with(path, StoreOptions::default())
    }

    /// [`Database::open`] with explicit [`StoreOptions`].
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> Result<Self, Error> {
        Database::open_with_vfs(path, options, Arc::new(cqa_storage::RealVfs))
    }

    /// [`Database::open_with`] against an explicit
    /// [`Vfs`](cqa_storage::Vfs) — the fault-injection entry point used
    /// by the robustness suite.
    pub fn open_with_vfs(
        path: impl AsRef<Path>,
        options: StoreOptions,
        vfs: Arc<dyn cqa_storage::Vfs>,
    ) -> Result<Self, Error> {
        let (store, recovered) = DurableStore::open_with_vfs(path.as_ref(), options, vfs)?;
        let report = recovered.report.clone();
        let (instance, constraints) = recovered.into_state();
        let mut db = Database::new(instance, constraints);
        db.storage = Some(Arc::new(store));
        db.recovery = Some(report);
        Ok(db)
    }

    /// What recovery found and did, if this database came from
    /// [`Database::open`]: snapshot size, frames replayed/skipped, torn
    /// bytes truncated, and the durable write horizon
    /// ([`RecoveryReport::last_seq`]).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// `true` iff this database is backed by a [`DurableStore`].
    pub fn is_persistent(&self) -> bool {
        self.storage.is_some()
    }

    /// `true` iff this handle may mutate: always for in-memory
    /// databases, and for the handle that created/opened a persistent
    /// store — but not for its clones (see [`Error::ReadOnlyClone`]).
    pub fn is_writer(&self) -> bool {
        self.storage.is_none() || self.writer
    }

    /// Force all acknowledged writes to stable storage regardless of the
    /// configured [`FsyncPolicy`](cqa_storage::FsyncPolicy). No-op for
    /// in-memory databases.
    pub fn sync(&self) -> Result<(), Error> {
        if let Some(store) = &self.storage {
            store.sync()?;
        }
        Ok(())
    }

    /// Write-path counters of the backing store ([`StoreStats`]: appends,
    /// fsyncs, WAL bytes, segments written vs reused, …), or
    /// `None` for an in-memory database. Named stats, cheap to copy —
    /// meaningful as before/after deltas, like the cache and planner
    /// stats.
    pub fn storage_stats(&self) -> Option<StoreStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// Mutation guard: a clone of a persistent database does not hold
    /// the write role and must not append to the shared WAL.
    fn check_writable(&self) -> Result<(), Error> {
        if self.storage.is_some() && !self.writer {
            return Err(Error::ReadOnlyClone);
        }
        Ok(())
    }

    /// Post-mutation housekeeping: fold the WAL into the snapshot when
    /// it has outgrown the configured fraction — rewriting only the
    /// segments of relations the folded frames touched.
    fn maybe_compact(&self) -> Result<(), Error> {
        if let Some(store) = &self.storage {
            store.maybe_compact(&self.instance, &self.constraints)?;
        }
        Ok(())
    }

    /// Resolve `(relation, tuple)` to a validated [`DatabaseAtom`]:
    /// unknown relations and arity mismatches are errors *before* any
    /// WAL append or mutation.
    fn atom_for(&self, relation: &str, tuple: Tuple) -> Result<DatabaseAtom, Error> {
        let rel = self.schema().require(relation)?;
        let expected = self.schema().relation(rel).arity();
        if tuple.arity() != expected {
            return Err(Error::Relational(
                cqa_relational::RelationalError::ArityMismatch {
                    relation: relation.to_string(),
                    expected,
                    actual: tuple.arity(),
                },
            ));
        }
        Ok(DatabaseAtom::new(rel, tuple))
    }

    /// This database's cache bundle (worklist + grounding stats live
    /// here).
    pub fn caches(&self) -> &CqaCaches {
        &self.caches
    }

    /// Routing counters of the fast-path query planner for this
    /// database's traffic: how many `consistent_answers*` calls were
    /// answered by the FO-rewrite route, the chase fast path, or fell
    /// back to repair enumeration, and which route the most recent call
    /// took. Meaningful as before/after deltas (PR-8 stats idiom).
    pub fn planner_stats(&self) -> cqa_core::PlannerStats {
        self.caches.planner.stats()
    }

    /// The route the planner would take for a Datalog-style query under
    /// this database's constraints and repair configuration — pure
    /// analysis, no data is touched. `declined` lists why a fast path
    /// was refused.
    pub fn query_plan(&self, query: &str) -> Result<cqa_core::QueryPlan, Error> {
        let q = cqa_sql::parse_query(self.schema(), query)?;
        Ok(cqa_core::plan_query(&self.constraints, &q, &self.config))
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.instance.schema()
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The constraint set.
    pub fn constraints(&self) -> &IcSet {
        &self.constraints
    }

    /// Override the repair-search configuration.
    pub fn with_config(mut self, config: RepairConfig) -> Self {
        self.config = config;
        self
    }

    /// Bound every subsequent engine call (`repairs`, the program route,
    /// CQA) to at most `deadline` of wall-clock time. The budget is
    /// per-call, not cumulative: each call starts a fresh timer. A call
    /// that exceeds it returns [`CoreError::Interrupted`] and leaves the
    /// database and its caches fully usable.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set or clear the per-call deadline in place (the `&mut` form of
    /// [`Database::with_deadline`]).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// A handle that cancels in-flight engine calls on this database
    /// (and its clones — they share the root token). Typical use: clone
    /// the database into a worker thread, keep the handle, and
    /// [`CancelToken::cancel`] it when the caller loses interest. The
    /// trip is sticky: call [`Database::reset_cancel`] before issuing
    /// new work through a tripped handle.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replace the cancel root with a fresh, untripped token. Detaches
    /// this handle from previously exported [`Database::cancel_handle`]s
    /// and from clones (which keep the old root).
    pub fn reset_cancel(&mut self) {
        self.cancel = CancelToken::new();
    }

    /// The token governing one engine call: the shared manual-cancel
    /// root, with this call's deadline layered on top when one is set.
    fn op_token(&self) -> CancelToken {
        match self.deadline {
            Some(d) => self.cancel.child_with_timeout(d),
            None => self.cancel.clone(),
        }
    }

    /// Add a constraint from text, e.g. `"r(x, y) -> exists z: s(x, z)"`
    /// or `"not null r(y)"`.
    ///
    /// On a persistent database the constraint is appended to the WAL as
    /// a tagged frame *before* the in-memory set changes — an O(delta)
    /// append with the same acknowledgment contract as data writes, not
    /// a snapshot rewrite. Recovery replays it in sequence order with
    /// the data deltas; the next ordinary compaction folds it into the
    /// manifest.
    pub fn add_constraint(&mut self, name: &str, text: &str) -> Result<(), Error> {
        self.check_writable()?;
        let con = cqa_sql::parse_constraint(self.schema(), name, text)?;
        if let Some(store) = &self.storage {
            store.append_constraint(&con)?;
        }
        self.constraints.push(con);
        self.maybe_compact()?;
        Ok(())
    }

    /// The one mutation path behind the six mutators: validate every
    /// row (an unknown relation or a wrong arity fails the whole call
    /// before anything reaches the WAL), drop the rows that would not
    /// change the instance, log the rest as one [`InstanceDelta`]
    /// *before* mutating, apply it and compact if due. Returns how many
    /// rows changed the instance.
    fn write<'a>(
        &mut self,
        insert: bool,
        rows: impl IntoIterator<Item = (&'a str, impl Into<Tuple>)>,
    ) -> Result<usize, Error> {
        self.check_writable()?;
        let mut delta = InstanceDelta::default();
        let atoms = if insert {
            &mut delta.added
        } else {
            &mut delta.removed
        };
        for (relation, tuple) in rows {
            let atom = self.atom_for(relation, tuple.into())?;
            // Set semantics: no-ops never reach the WAL.
            if self.instance.contains(&atom) != insert {
                atoms.insert(atom);
            }
        }
        let count = atoms.len();
        if count == 0 {
            return Ok(0);
        }
        if let Some(store) = &self.storage {
            store.append_delta(&delta)?;
        }
        self.instance.apply(delta.added, delta.removed);
        self.maybe_compact()?;
        Ok(count)
    }

    /// Insert a tuple; `Ok(true)` when it was new. On a persistent
    /// database the delta is WAL-appended (and, per policy, fsynced)
    /// *before* the in-memory mutation.
    pub fn insert(&mut self, relation: &str, tuple: impl Into<Tuple>) -> Result<bool, Error> {
        Ok(self.write(true, [(relation, tuple)])? == 1)
    }

    /// Delete a tuple; `true` when it was present. Cached groundings of
    /// the repair program survive the deletion — the next program-route
    /// call regrounds incrementally by delete–rederive instead of
    /// rebuilding. Validation is symmetric with insert: an arity typo is
    /// an error, not a silent "tuple was not present". On a persistent
    /// database the delta is WAL-appended *before* the in-memory
    /// mutation.
    pub fn delete(&mut self, relation: &str, tuple: impl Into<Tuple>) -> Result<bool, Error> {
        Ok(self.write(false, [(relation, tuple)])? == 1)
    }

    /// Insert a batch of tuples into one relation as a *single*
    /// [`InstanceDelta`] — one WAL frame, one cache-replay step — instead
    /// of N single-fact rounds. Returns how many tuples were actually
    /// new. The result is pinned equal to the equivalent sequence of
    /// [`Database::insert`] calls; only the delta granularity differs.
    pub fn insert_many(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = impl Into<Tuple>>,
    ) -> Result<usize, Error> {
        self.write(true, tuples.into_iter().map(|t| (relation, t)))
    }

    /// Delete a batch of tuples from one relation as a single
    /// [`InstanceDelta`] / WAL frame. Returns how many tuples were
    /// actually present. Validation is per-tuple, exactly as
    /// [`Database::delete`].
    pub fn delete_many(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = impl Into<Tuple>>,
    ) -> Result<usize, Error> {
        self.write(false, tuples.into_iter().map(|t| (relation, t)))
    }

    /// Insert a batch of `(relation, tuple)` rows spanning *any* mix of
    /// relations as a single [`InstanceDelta`]: one WAL frame and, under
    /// `FsyncPolicy::Always`, one fsync for the whole batch — not one
    /// per row. Returns how many rows were actually new. Validation is
    /// per-row and happens before anything reaches the WAL, exactly as
    /// [`Database::insert`].
    pub fn insert_all<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a str, impl Into<Tuple>)>,
    ) -> Result<usize, Error> {
        self.write(true, rows)
    }

    /// Delete a batch of `(relation, tuple)` rows spanning any mix of
    /// relations as a single [`InstanceDelta`] / WAL frame / fsync.
    /// Returns how many rows were actually present. Validation is
    /// per-row, exactly as [`Database::delete`].
    pub fn delete_all<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a str, impl Into<Tuple>)>,
    ) -> Result<usize, Error> {
        self.write(false, rows)
    }

    /// Is the database consistent under the paper's `|=_N`?
    pub fn is_consistent(&self) -> bool {
        cqa_constraints::is_consistent(&self.instance, &self.constraints)
    }

    /// Human-readable violation reports.
    pub fn violations(&self) -> Vec<String> {
        cqa_constraints::violations(
            &self.instance,
            &self.constraints,
            cqa_constraints::SatMode::NullAware,
        )
        .iter()
        .map(|v| v.display(self.schema(), &self.constraints))
        .collect()
    }

    /// All repairs (Definition 7). Honours the deadline/cancel governor
    /// (see [`Database::with_deadline`]).
    pub fn repairs(&self) -> Result<Vec<Instance>, Error> {
        Ok(cqa_core::repairs_with_config_governed(
            &self.instance,
            &self.constraints,
            self.config,
            &self.caches,
            &self.op_token(),
        )?)
    }

    /// Repairs via the Definition-9 logic program (Theorem 4 route).
    /// Honours the deadline/cancel governor.
    pub fn repairs_via_program(&self) -> Result<Vec<Instance>, Error> {
        Ok(cqa_core::repairs_via_program_governed(
            &self.instance,
            &self.constraints,
            ProgramStyle::Corrected,
            false,
            &self.caches,
            &self.op_token(),
        )?)
    }

    /// The repair program Π(D, IC), rendered.
    pub fn repair_program_text(&self) -> Result<String, Error> {
        let p =
            cqa_core::repair_program(&self.instance, &self.constraints, ProgramStyle::Corrected)?;
        Ok(p.to_string())
    }

    /// Consistent answers (Definition 8) for a Datalog-style query, e.g.
    /// `"q(x) :- r(x, y), not s(y), y <> 'b'."`.
    pub fn consistent_answers(&self, query: &str) -> Result<BTreeSet<Tuple>, Error> {
        let q = cqa_sql::parse_query(self.schema(), query)?;
        let answers = cqa_core::consistent_answers_governed(
            &self.instance,
            &self.constraints,
            &q,
            self.config,
            AnswerSemantics::IncludeNullAnswers,
            cqa_core::QueryNullSemantics::NullAsValue,
            &self.caches,
            &self.op_token(),
        )?;
        Ok(answers.tuples)
    }

    /// Consistent answer for a boolean query: `yes`/`no`. A query of
    /// non-zero arity is refused with [`CoreError::InvalidQuery`] before
    /// any engine runs.
    pub fn consistent_answer_boolean(&self, query: &str) -> Result<bool, Error> {
        let q = cqa_sql::parse_query(self.schema(), query)?;
        if !q.is_boolean() {
            return Err(Error::Core(CoreError::InvalidQuery(format!(
                "a boolean query has arity 0, this one has arity {}",
                q.arity()
            ))));
        }
        let answers = cqa_core::consistent_answers_governed(
            &self.instance,
            &self.constraints,
            &q,
            self.config,
            AnswerSemantics::IncludeNullAnswers,
            cqa_core::QueryNullSemantics::NullAsValue,
            &self.caches,
            &self.op_token(),
        )?;
        Ok(answers.is_yes())
    }

    /// Plain (possibly inconsistent) answers on the current instance.
    pub fn answers(&self, query: &str) -> Result<BTreeSet<Tuple>, Error> {
        let q = cqa_sql::parse_query(self.schema(), query)?;
        Ok(q.eval(&self.instance))
    }

    /// Consistent answers under SQL's three-valued null reading for the
    /// query itself (joins/comparisons touching null are unknown) — the
    /// `|=q_N` variant of the paper's Section 7(a).
    pub fn consistent_answers_sql(&self, query: &str) -> Result<BTreeSet<Tuple>, Error> {
        let q = cqa_sql::parse_query(self.schema(), query)?;
        let answers = cqa_core::consistent_answers_governed(
            &self.instance,
            &self.constraints,
            &q,
            self.config,
            AnswerSemantics::IncludeNullAnswers,
            cqa_core::QueryNullSemantics::SqlThreeValued,
            &self.caches,
            &self.op_token(),
        )?;
        Ok(answers.tuples)
    }

    /// Repairs together with the decision steps that produced them
    /// (which constraint fired, what was inserted/deleted). Honours the
    /// deadline/cancel governor.
    pub fn repairs_with_trace(&self) -> Result<Vec<cqa_core::TracedRepair>, Error> {
        Ok(cqa_core::repairs_with_trace_governed(
            &self.instance,
            &self.constraints,
            self.config,
            &self.caches,
            &self.op_token(),
        )?)
    }

    /// Render the instance as ASCII tables.
    pub fn tables(&self) -> String {
        cqa_relational::display::instance_tables(&self.instance)
    }
}

/// Re-export of commonly used leaf types at the crate root.
pub use cqa_core::query::AnswerSemantics as NullAnswerSemantics;
pub use cqa_core::InterruptPhase;
pub use cqa_relational::{i, null, s, Cancelled, Value as DbValue};

#[cfg(test)]
mod tests {
    use super::*;

    fn example19_db() -> Database {
        Database::from_script(
            "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
             CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
             INSERT INTO r VALUES ('a', 'b'), ('a', 'c');
             INSERT INTO s VALUES ('e', 'f'), (NULL, 'a');",
        )
        .unwrap()
    }

    #[test]
    fn facade_end_to_end() {
        let db = example19_db();
        assert!(!db.is_consistent());
        assert_eq!(db.violations().len(), 3); // FD both directions + FK
        assert_eq!(db.repairs().unwrap().len(), 4);
        assert_eq!(db.repairs_via_program().unwrap(), db.repairs().unwrap());
        let answers = db.consistent_answers("q(v) :- s(u, v).").unwrap();
        assert_eq!(answers.len(), 1);
        assert!(db.consistent_answer_boolean("b() :- s(u, 'a').").unwrap());
        assert!(!db.consistent_answer_boolean("b() :- s(u, 'f').").unwrap());
    }

    #[test]
    fn facade_mutation_and_constraints() {
        let mut db = Database::from_script(
            "CREATE TABLE p (a TEXT, b TEXT);
             CREATE TABLE q (x TEXT);",
        )
        .unwrap();
        db.insert("p", [s("1"), s("2")]).unwrap();
        assert!(db.is_consistent());
        db.add_constraint("incl", "p(x, y) -> q(x)").unwrap();
        assert!(!db.is_consistent());
        assert_eq!(db.repairs().unwrap().len(), 2);
        assert!(db.repair_program_text().unwrap().contains("p_fa"));
    }

    #[test]
    fn facade_delete_validates_like_insert() {
        let mut db = example19_db();
        // Present tuple: removed. Absent tuple of the right arity: false.
        assert!(db.delete("r", [s("a"), s("b")]).unwrap());
        assert!(!db.delete("r", [s("zz"), s("b")]).unwrap());
        // Wrong arity and unknown relation are errors, exactly as insert.
        assert!(matches!(
            db.delete("r", [s("a")]),
            Err(Error::Relational(
                cqa_relational::RelationalError::ArityMismatch { .. }
            ))
        ));
        assert!(matches!(
            db.delete("nope", [s("a")]),
            Err(Error::Relational(
                cqa_relational::RelationalError::UnknownRelation(_)
            ))
        ));
    }

    #[test]
    fn facade_plain_answers_differ_from_consistent_ones() {
        let db = example19_db();
        let plain = db.answers("q(v) :- s(u, v).").unwrap();
        let consistent = db.consistent_answers("q(v) :- s(u, v).").unwrap();
        assert_eq!(plain.len(), 2);
        assert_eq!(consistent.len(), 1);
        assert!(consistent.is_subset(&plain));
    }

    #[test]
    fn traces_and_sql_semantics_via_facade() {
        let db = example19_db();
        let traced = db.repairs_with_trace().unwrap();
        assert_eq!(traced.len(), 4);
        assert!(traced.iter().all(|t| !t.steps.is_empty()));
        // SQL-mode CQA runs and returns a subset of as-value CQA.
        let sql = db.consistent_answers_sql("q(v) :- s(u, v).").unwrap();
        let plain = db.consistent_answers("q(v) :- s(u, v).").unwrap();
        assert!(sql.is_subset(&plain));
    }

    #[test]
    fn tables_render() {
        let db = example19_db();
        let text = db.tables();
        assert!(text.contains("r\n"));
        assert!(text.contains("null"));
    }
}
