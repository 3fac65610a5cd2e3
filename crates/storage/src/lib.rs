//! # cqa-storage — WAL + segmented-snapshot durability
//!
//! Crash-safe persistence for the nullcqa workspace: a write-ahead log
//! of tagged ops — [`InstanceDelta`](cqa_relational::InstanceDelta)
//! frames and constraint frames — paired with incremental per-relation
//! snapshots, std-only like the rest of the workspace. Recovery loads
//! the snapshot and replays the surviving ops onto it in sequence order
//! ([`Recovered::into_state`]), so a reopened database holds every
//! acknowledged write. Derived state (groundings, worklists) is not
//! persisted; it is rebuilt on demand after a reopen.
//!
//! ## On-disk format
//!
//! A store is a directory holding a WAL, a manifest, and one segment
//! file per relation (plus a transient `manifest.tmp` during
//! compaction):
//!
//! ### WAL (`<dir>/wal`)
//!
//! ```text
//! [ magic "CQAWAL02" : 8 bytes ]
//! [ frame ]*
//!
//! frame := [ payload_len : u32 LE ]
//!          [ seq         : u64 LE ]   monotonic from 1, never reused
//!          [ crc32       : u32 LE ]   CRC-32/IEEE over seq_LE || payload
//!          [ payload     : payload_len bytes ]
//!
//! payload := [ op_tag : u8 ]  0 = delta, 1 = constraint
//!            [ op body ]      delta: symbol table, removed, added
//!                             constraint: symbol table, structural
//!                             Ic / Nnc encoding
//! ```
//!
//! Every frame is self-describing: it carries its own symbol table
//! (file-local dense id → string), so a frame written by one process is
//! decodable by any other. The CRC covers sequence number and payload
//! together, so a frame spliced from another log — or one whose header
//! survived a torn write but whose body did not — fails as a unit.
//!
//! **Constraint frames** make `add_constraint` an O(delta) append:
//! instead of forcing a snapshot rewrite (constraints used to live only
//! in snapshots), the constraint is logged as a tagged frame and
//! recovery replays it in sequence order with the deltas. The next
//! compaction folds it into the manifest like any other acknowledged
//! write.
//!
//! **Torn-tail semantics.** A crash mid-append leaves a short or
//! corrupt final frame; that is the expected steady state of a WAL, not
//! an error. Opening scans frames until the first short frame, failed
//! checksum, implausible length, or sequence regression, truncates the
//! file at the last good frame boundary, and reports the dropped bytes
//! in [`RecoveryReport::bytes_truncated`]. Acknowledged writes (those
//! whose append returned, under `FsyncPolicy::Always`) are always in
//! the surviving prefix.
//!
//! ### Snapshot (`<dir>/manifest` + `<dir>/seg-<rel>-<epoch>`)
//!
//! The snapshot is segmented: a small manifest records the schema, the
//! constraint set, and one entry per relation naming a segment file
//! that holds the relation's tuples (see [`snapshot`] for the exact
//! byte layout). Both manifest and segments are all-or-nothing
//! `[magic][body_len][body][crc32]` files; the manifest additionally
//! pins each segment's expected length and body CRC, so a swapped or
//! truncated segment is detected as a unit.
//!
//! Atomicity comes from the writer protocol: write changed segments to
//! *fresh* epoch-stamped names and fsync them, fsync the directory,
//! then write `manifest.tmp`, `fsync`, `rename` over `manifest`, and
//! `fsync` the directory again. The rename is the commit point: a crash
//! at any step leaves either the complete old snapshot or the complete
//! new one. Debris — a stale `manifest.tmp`, segment files no manifest
//! references — is swept on open, never trusted.
//!
//! ### Symbol remapping
//!
//! [`Symbol`](cqa_relational::Symbol) ids are process-local interner
//! handles — meaningless across processes. Every persisted section
//! therefore encodes *file-local* dense ids plus an id → string table;
//! loading re-interns each string through the live process's interner.
//! Value ordering survives the remap because `Symbol`'s `Ord` is
//! lexicographic on the resolved text, never on the id.
//!
//! ### Fsync semantics
//!
//! [`FsyncPolicy`] governs when appended WAL frames reach stable
//! storage: `Always` (every acknowledged write survives power loss) or
//! `Never` (the OS page cache decides — process crashes still lose
//! nothing, since the page cache outlives the process). Snapshot writes
//! always sync, regardless of policy.
//!
//! Under `Always`, an append writes its frame and fsyncs it under the
//! store lock before it returns: **nothing is ever acknowledged that a
//! reopen can lose.** If the fsync fails, the append returns the error
//! and its frame does not count as acknowledged.
//!
//! ### Compaction
//!
//! When the WAL outgrows a configured fraction of the snapshot
//! ([`StoreOptions`]), the store folds the current in-memory state into
//! the snapshot stamped with the current `last_seq` and resets the log.
//! Compaction is **incremental**: the store tracks which relations
//! appends have touched since the last snapshot (including ops
//! recovered from the WAL at open) and rewrites only their segments,
//! re-referencing every clean segment from the previous manifest —
//! O(changed relations), not O(instance). Sequence numbers carry
//! forward across the reset, so recovery resolves every compaction
//! crash window by rule: apply exactly the frames with
//! `seq > manifest.last_seq`.
//!
//! ### Observability
//!
//! [`DurableStore::stats`] returns a [`StoreStats`] with the write-path
//! counters — appends, fsyncs, WAL bytes, segments written vs reused —
//! following the same named-stats convention as the engine-side cache
//! stats.
//!
//! ## Failure model
//!
//! Everything this crate promises is stated against an explicit fault
//! model, and the whole model is mechanically exercised: all I/O flows
//! through the [`Vfs`] trait, and the deterministic [`FaultVfs`]
//! harness injects each fault class at every reachable operation index
//! (see `tests/fault_injection.rs`).
//!
//! Faults considered, and the contract under each:
//!
//! * **Torn writes** — a crash truncates an in-flight WAL append (or
//!   segment / tmp-manifest write) at any byte boundary. Contract:
//!   reopen succeeds; a torn WAL tail is truncated and reported
//!   ([`RecoveryReport::bytes_truncated`]); a torn segment or manifest
//!   write is invisible because nothing referenced it yet (fresh names,
//!   rename-commit); every acknowledged-and-synced write survives.
//! * **Bit rot / corruption** — any persisted byte flips after a
//!   successful write. Contract: the CRC layer detects it; open fails
//!   with a *typed* [`StorageError`] naming the damaged structure,
//!   never a panic, a hang, or silently wrong data. A corrupt
//!   mid-WAL frame drops that frame and its suffix (reported in
//!   [`RecoveryReport::frames_skipped`]); a corrupt manifest or
//!   referenced segment is fatal for the store, by design — the
//!   manifest is the root of trust.
//! * **Failed syscalls** — `write`/`fsync`/`rename`/`remove`/`create`
//!   returning an error at any point. Contract: the error propagates as
//!   [`StorageError`]; on-disk state remains one of the two states the
//!   writer protocol allows (old or new), so a subsequent open recovers
//!   a consistent prefix. A failed WAL write or fsync errors the append
//!   it would have acknowledged and cuts the frame back out of the log,
//!   so a later append neither makes it durable nor sits behind its
//!   torn bytes; if that rollback fails too, the handle refuses every
//!   later append ([`StorageError::Poisoned`]).
//! * **Crash between protocol steps** — e.g. after segments are written
//!   but before the manifest, after `manifest.tmp` is written but
//!   before the rename, or after the rename but before the directory
//!   sync. Contract: the open-time sweep and the `seq > last_seq`
//!   replay rule resolve every interleaving; unreferenced segment files
//!   are garbage-collected, never read.
//!
//! Out of scope: byzantine filesystems that acknowledge syncs without
//! persisting (the contract is only as strong as `fsync`), collisions
//! of CRC-32 (detection, not authentication), and concurrent writers
//! (single write role, enforced by the facade's clone semantics;
//! concurrent *appends through one handle* are in scope and serialised
//! by the store lock).
//!
//! The test oracle is equivalence: for every injected fault, either the
//! operation reports a typed error and the reopened store equals the
//! last acknowledged state, or the operation succeeds and the store
//! equals the new state — no third outcome.

pub mod codec;
pub mod error;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use codec::WalOp;
pub use error::StorageError;
pub use snapshot::{SegmentEntry, Snapshot, SnapshotLayout};
pub use store::{DurableStore, Recovered, RecoveryReport, StoreOptions, StoreStats};
pub use vfs::{FaultScript, FaultVfs, OpCounts, RealVfs, Vfs, VfsFile};
pub use wal::FsyncPolicy;
