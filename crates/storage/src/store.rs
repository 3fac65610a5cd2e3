//! The durable store: one directory holding a segmented snapshot plus a
//! WAL, with the recovery and compaction protocol between them.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/manifest          snapshot root: schema, constraints, and one
//!                         entry per relation segment (see
//!                         [`crate::snapshot`])
//! <dir>/seg-<rel>-<epoch> per-relation tuple segments
//! <dir>/wal               tagged op frames appended since the manifest
//! <dir>/manifest.tmp      transient; a crash mid-compaction can leave
//!                         one (swept on open, never trusted)
//! ```
//!
//! ## Protocol invariants
//!
//! - **WAL-before-state**: callers append an op *before* mutating
//!   in-memory state, and the append does not return under
//!   [`FsyncPolicy::Always`] until its own fsync has succeeded. An
//!   acknowledged write is therefore always recoverable. Concurrent
//!   appends through one handle are serialised by the store lock, each
//!   with its own fsync.
//! - **Monotonic sequence numbers**: frame seqs start at 1 and are never
//!   reused, even across compactions. The manifest records the highest
//!   seq folded into it (`last_seq`); recovery applies only frames with
//!   `seq > last_seq`, so every crash window around compaction resolves
//!   to the same state.
//! - **Incremental compaction**: the store tracks which relations have
//!   been touched by appends since the last snapshot; compaction
//!   rewrites *only their* segments (to fresh epoch-stamped names) and
//!   re-references the rest, then commits at the manifest rename —
//!   O(changed relations), not O(instance). Constraints ride in the
//!   manifest itself and are always current.
//! - **Constraint frames are O(delta)**: `add_constraint` appends one
//!   tagged WAL frame ([`WalOp::Constraint`]) instead of forcing a
//!   snapshot rewrite; recovery replays it in sequence order with the
//!   delta frames.
//!
//! The store moves bytes and sequence numbers. Recovery is
//! [`Recovered::into_state`]: the surviving ops applied to the snapshot
//! in sequence order. Derived state (groundings, worklists) is not
//! recovered; the facade rebuilds it on demand, as it does for a
//! database built in memory.

use crate::codec::{encode_constraint_op, encode_delta_op, WalOp};
use crate::error::StorageError;
use crate::snapshot::{self, SnapshotLayout};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{FsyncPolicy, Wal};
use cqa_constraints::{Constraint, IcSet};
use cqa_relational::{Instance, InstanceDelta, RelId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// When appended WAL frames are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Compaction triggers when `wal_bytes > snapshot_bytes * num / den`
    /// (and the WAL exceeds [`StoreOptions::compact_min_wal_bytes`]).
    pub compact_num: u64,
    /// Denominator of the compaction fraction.
    pub compact_den: u64,
    /// Compaction never triggers below this many WAL bytes — tiny
    /// stores would otherwise snapshot on every write.
    pub compact_min_wal_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            compact_num: 1,
            compact_den: 1,
            compact_min_wal_bytes: 64 * 1024,
        }
    }
}

/// Write-path counters, named and cheap to copy — the storage
/// counterpart of the engine-side cache stats. Snapshot via
/// [`DurableStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL frames appended (delta + constraint).
    pub appends: u64,
    /// Constraint frames among the appends.
    pub constraint_frames: u64,
    /// fsyncs issued on the WAL (per-append under `Always`, plus
    /// explicit [`DurableStore::sync`] calls).
    pub fsyncs: u64,
    /// Current WAL length in bytes (sampled when the stats are read).
    pub wal_bytes: u64,
    /// Snapshot compactions performed by this handle.
    pub compactions: u64,
    /// Segment files freshly written across those compactions.
    pub segments_written: u64,
    /// Segment entries reused by reference across those compactions.
    pub segments_reused: u64,
}

/// What recovery found and did, for observability and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Atoms in the snapshot (before WAL replay).
    pub snapshot_atoms: usize,
    /// Highest sequence number folded into the snapshot.
    pub snapshot_last_seq: u64,
    /// Frames replayed on top of the snapshot (delta + constraint).
    pub frames_applied: u64,
    /// Constraint frames among the replayed ones.
    pub constraint_frames: u64,
    /// Intact frames skipped because the snapshot already covered them
    /// (the compaction-then-crash window).
    pub frames_skipped: u64,
    /// Bytes dropped from the WAL's torn/corrupt tail (0 on clean
    /// shutdown).
    pub bytes_truncated: u64,
    /// Highest sequence number in the recovered state — the durable
    /// write horizon. Everything at or below it was acknowledged and
    /// survived; nothing above it was ever acknowledged.
    pub last_seq: u64,
}

/// The result of opening an existing store.
#[derive(Debug)]
pub struct Recovered {
    /// The instance exactly as the snapshot recorded it (WAL ops
    /// **not** yet applied); [`Recovered::into_state`] applies
    /// [`Recovered::ops`] to it.
    pub snapshot_instance: Instance,
    /// The constraint set as of the snapshot (WAL constraint frames
    /// **not** yet applied).
    pub ics: IcSet,
    /// Surviving WAL ops in sequence order, each past the snapshot
    /// horizon.
    pub ops: Vec<(u64, WalOp)>,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

impl Recovered {
    /// The recovered state: the snapshot instance and constraint set
    /// with every surviving op applied in sequence order — deltas to
    /// the instance, constraint frames to the set.
    pub fn into_state(self) -> (Instance, IcSet) {
        let mut instance = self.snapshot_instance;
        let mut ics = self.ics;
        for (_, op) in self.ops {
            match op {
                WalOp::Delta(delta) => instance.apply(delta.added, delta.removed),
                WalOp::Constraint(con) => ics.push(con),
            }
        }
        (instance, ics)
    }
}

/// Everything guarded by the store's primary lock: the WAL handle, the
/// live snapshot layout, and the dirty-relation set that makes
/// compaction incremental.
#[derive(Debug)]
struct StoreInner {
    wal: Wal,
    layout: SnapshotLayout,
    /// Relations touched by appends since the last snapshot (including
    /// ops recovered from the WAL at open). Their segments must be
    /// rewritten at the next compaction; everything else is reused.
    dirty: BTreeSet<RelId>,
    stats: StoreStats,
}

/// A manifest + segments + WAL ensemble rooted at one directory.
///
/// All methods take `&self`; one internal lock serialises them, so
/// concurrent appends through one handle are safe, and under
/// [`FsyncPolicy::Always`] each is made durable by its own fsync.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    options: StoreOptions,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<StoreInner>,
}

impl DurableStore {
    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal")
    }

    /// Create a fresh store at `dir` (creating the directory if needed)
    /// seeded with `instance` and `ics`. Fails with
    /// [`StorageError::AlreadyExists`] if `dir` already holds a store.
    pub fn create(
        dir: &Path,
        instance: &Instance,
        ics: &IcSet,
        options: StoreOptions,
    ) -> Result<DurableStore, StorageError> {
        Self::create_with_vfs(dir, instance, ics, options, Arc::new(RealVfs))
    }

    /// [`DurableStore::create`] against an explicit [`Vfs`] — the
    /// fault-injection entry point.
    pub fn create_with_vfs(
        dir: &Path,
        instance: &Instance,
        ics: &IcSet,
        options: StoreOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<DurableStore, StorageError> {
        vfs.create_dir_all(dir)?;
        if vfs.exists(&snapshot::manifest_path(dir)) {
            return Err(StorageError::AlreadyExists(dir.to_path_buf()));
        }
        let outcome = snapshot::write_with(vfs.as_ref(), dir, instance, ics, 0, None)?;
        let wal = Wal::create_with(vfs.as_ref(), &Self::wal_path(dir))?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            options,
            vfs,
            inner: Mutex::new(StoreInner {
                wal,
                layout: outcome.layout,
                dirty: BTreeSet::new(),
                stats: StoreStats::default(),
            }),
        })
    }

    /// Open an existing store: verify the manifest and every referenced
    /// segment, sweep compaction debris, scan the WAL (truncating any
    /// torn tail), and hand back the surviving ops
    /// ([`Recovered::into_state`] applies them). Fails with
    /// [`StorageError::NotAStore`] if `dir` has no manifest.
    pub fn open(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(DurableStore, Recovered), StorageError> {
        Self::open_with_vfs(dir, options, Arc::new(RealVfs))
    }

    /// [`DurableStore::open`] against an explicit [`Vfs`] — the
    /// fault-injection entry point.
    pub fn open_with_vfs(
        dir: &Path,
        options: StoreOptions,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(DurableStore, Recovered), StorageError> {
        if !vfs.exists(&snapshot::manifest_path(dir)) {
            return Err(StorageError::NotAStore(dir.to_path_buf()));
        }
        let snap = snapshot::read_with(vfs.as_ref(), dir)?;
        // A crash mid-compaction can leave a half-written manifest.tmp
        // or segment files no manifest references; the committed
        // snapshot is intact (rename is the commit point), the debris
        // is deleted, never trusted.
        snapshot::sweep_with(vfs.as_ref(), dir, &snap.layout)?;

        let wal_path = Self::wal_path(dir);
        let (mut wal, scan) = if vfs.exists(&wal_path) {
            Wal::open_with(vfs.as_ref(), &wal_path)?
        } else {
            // Crash window between snapshot creation and WAL creation:
            // the snapshot alone is a complete, empty-log store.
            (
                Wal::create_with(vfs.as_ref(), &wal_path)?,
                Default::default(),
            )
        };
        // A WAL rebuilt empty (missing, or caught in the create window)
        // must not reuse sequence numbers the snapshot already covers.
        wal.ensure_seq_at_least(snap.layout.last_seq + 1);

        let schema = snap.instance.schema().clone();
        let mut ops = Vec::new();
        let mut frames_skipped = 0u64;
        let mut constraint_frames = 0u64;
        let mut last_seq = snap.layout.last_seq;
        // Relations the surviving ops touch are dirty relative to the
        // on-disk segments: the next compaction must rewrite them.
        let mut dirty = BTreeSet::new();
        for frame in &scan.frames {
            if frame.seq <= snap.layout.last_seq {
                frames_skipped += 1;
                continue;
            }
            let op = crate::codec::decode_op(&frame.payload, &schema)?;
            match &op {
                WalOp::Delta(d) => {
                    for a in d.added.iter().chain(d.removed.iter()) {
                        dirty.insert(a.rel);
                    }
                }
                WalOp::Constraint(_) => constraint_frames += 1,
            }
            ops.push((frame.seq, op));
            last_seq = frame.seq;
        }

        let report = RecoveryReport {
            snapshot_atoms: snap.instance.len(),
            snapshot_last_seq: snap.layout.last_seq,
            frames_applied: ops.len() as u64,
            constraint_frames,
            frames_skipped,
            bytes_truncated: scan.bytes_truncated,
            last_seq,
        };
        let store = DurableStore {
            dir: dir.to_path_buf(),
            options,
            vfs,
            inner: Mutex::new(StoreInner {
                wal,
                layout: snap.layout,
                dirty,
                stats: StoreStats::default(),
            }),
        };
        Ok((
            store,
            Recovered {
                snapshot_instance: snap.instance,
                ics: snap.ics,
                ops,
                report,
            },
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("store lock")
    }

    /// Append one delta to the WAL and (per policy) make it durable;
    /// returns its sequence number. Per the WAL-before-state invariant,
    /// call this *before* mutating the in-memory instance.
    pub fn append_delta(&self, delta: &InstanceDelta) -> Result<u64, StorageError> {
        let rels: BTreeSet<RelId> = delta
            .added
            .iter()
            .chain(delta.removed.iter())
            .map(|a| a.rel)
            .collect();
        self.append_payload(encode_delta_op(delta), rels, false)
    }

    /// Append one constraint to the WAL and (per policy) make it
    /// durable; returns its sequence number. This is the O(delta) path
    /// behind `add_constraint` — no snapshot rewrite; recovery replays
    /// the frame.
    pub fn append_constraint(&self, con: &Constraint) -> Result<u64, StorageError> {
        self.append_payload(encode_constraint_op(con), BTreeSet::new(), true)
    }

    /// The one append step, under the store lock: write the frame, mark
    /// its relations dirty, count it and, under [`FsyncPolicy::Always`],
    /// fsync before returning. A failed fsync returns the error, so the
    /// caller never acknowledges the write.
    fn append_payload(
        &self,
        payload: Vec<u8>,
        dirty_rels: BTreeSet<RelId>,
        is_constraint: bool,
    ) -> Result<u64, StorageError> {
        let mut inner = self.lock_inner();
        let seq = inner.wal.append(&payload)?;
        inner.dirty.extend(dirty_rels);
        inner.stats.appends += 1;
        if is_constraint {
            inner.stats.constraint_frames += 1;
        }
        if self.options.fsync == FsyncPolicy::Always {
            inner.wal.sync()?;
            inner.stats.fsyncs += 1;
        }
        Ok(seq)
    }

    /// Force all appended frames to stable storage, regardless of
    /// policy.
    pub fn sync(&self) -> Result<(), StorageError> {
        let mut inner = self.lock_inner();
        inner.wal.sync()?;
        inner.stats.fsyncs += 1;
        Ok(())
    }

    /// The highest sequence number handed out so far (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.lock_inner().wal.next_seq() - 1
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> Result<u64, StorageError> {
        self.lock_inner().wal.len_bytes()
    }

    /// Current snapshot size in bytes (manifest + referenced segments).
    pub fn snapshot_bytes(&self) -> u64 {
        self.lock_inner().layout.total_bytes
    }

    /// A copy of the write-path counters, with
    /// [`StoreStats::wal_bytes`] sampled at call time.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock_inner();
        let mut stats = inner.stats;
        stats.wal_bytes = inner.wal.len_bytes().unwrap_or(0);
        stats
    }

    /// `true` iff the WAL has outgrown the configured fraction of the
    /// snapshot.
    pub fn wants_compaction(&self) -> Result<bool, StorageError> {
        let inner = self.lock_inner();
        let wal_bytes = inner.wal.len_bytes()?;
        if wal_bytes < self.options.compact_min_wal_bytes {
            return Ok(false);
        }
        // wal > snapshot * num / den, overflow-safe.
        Ok(wal_bytes as u128 * self.options.compact_den as u128
            > inner.layout.total_bytes as u128 * self.options.compact_num as u128)
    }

    /// Fold the WAL into the snapshot and reset the log, rewriting
    /// *only* the segments of relations touched since the last
    /// compaction and reusing every other segment by reference. The
    /// caller passes the *current* in-memory state — by the
    /// WAL-before-state invariant it covers every acknowledged frame.
    pub fn compact(&self, instance: &Instance, ics: &IcSet) -> Result<(), StorageError> {
        self.compact_impl(instance, ics, false)
    }

    /// Compaction that rewrites every segment regardless of the dirty
    /// set — the full-price baseline (also what benchmarks compare the
    /// incremental path against).
    pub fn compact_full(&self, instance: &Instance, ics: &IcSet) -> Result<(), StorageError> {
        self.compact_impl(instance, ics, true)
    }

    fn compact_impl(
        &self,
        instance: &Instance,
        ics: &IcSet,
        full: bool,
    ) -> Result<(), StorageError> {
        let mut inner = self.lock_inner();
        let last_seq = inner.wal.next_seq() - 1;
        let all_dirty: BTreeSet<RelId>;
        let dirty: &BTreeSet<RelId> = if full {
            // "Everything is dirty" rather than `prev: None`: the
            // epoch still advances, so fresh segments never reuse a
            // name the live manifest references.
            all_dirty = instance.schema().rel_ids().collect();
            &all_dirty
        } else {
            &inner.dirty
        };
        let outcome = snapshot::write_with(
            self.vfs.as_ref(),
            &self.dir,
            instance,
            ics,
            last_seq,
            Some((&inner.layout, dirty)),
        )?;
        // The new manifest is committed; replaced segment files are
        // garbage. Deleting them is best-effort housekeeping —
        // leftovers are swept on the next open.
        for seg in &inner.layout.segments {
            if !outcome.layout.references(&seg.name) {
                let _ = self.vfs.remove_file(&self.dir.join(&seg.name));
            }
        }
        inner.layout = outcome.layout;
        inner.dirty.clear();
        inner.stats.compactions += 1;
        inner.stats.segments_written += outcome.segments_written;
        inner.stats.segments_reused += outcome.segments_reused;
        inner.wal.reset()?;
        Ok(())
    }

    /// Compact if [`DurableStore::wants_compaction`]; returns whether a
    /// compaction ran.
    pub fn maybe_compact(&self, instance: &Instance, ics: &IcSet) -> Result<bool, StorageError> {
        if self.wants_compaction()? {
            self.compact(instance, ics)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::{s, DatabaseAtom, Schema, Tuple};
    use std::fs::{self, OpenOptions};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqa-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed() -> (Instance, IcSet) {
        let schema = Schema::builder()
            .relation("r", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let mut inst = Instance::empty(schema);
        inst.insert_named("r", [s("a"), s("b")]).unwrap();
        (inst, IcSet::default())
    }

    fn atom(inst: &Instance, x: &str, y: &str) -> DatabaseAtom {
        DatabaseAtom::new(
            inst.schema().require("r").unwrap(),
            Tuple::new(vec![s(x), s(y)]),
        )
    }

    #[test]
    fn create_then_open_recovers_seed_state() {
        let dir = tmpdir("seed");
        let (inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        assert_eq!(store.last_seq(), 0);
        drop(store);

        let (store, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.snapshot_instance, inst);
        assert!(rec.ops.is_empty());
        assert_eq!(
            rec.report,
            RecoveryReport {
                snapshot_atoms: 1,
                ..Default::default()
            }
        );
        assert_eq!(store.last_seq(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = tmpdir("clobber");
        let (inst, ics) = seed();
        DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        let err = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_is_not_a_store() {
        let dir = tmpdir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = DurableStore::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(matches!(err, StorageError::NotAStore(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appended_deltas_come_back_in_order() {
        let dir = tmpdir("deltas");
        let (mut inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        for k in 0..5 {
            let a = atom(&inst, &format!("w{k}"), "y");
            let mut delta = InstanceDelta::default();
            delta.added.insert(a.clone());
            assert_eq!(store.append_delta(&delta).unwrap(), k + 1);
            inst.insert(a.rel, a.tuple).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.appends, 5);
        assert_eq!(stats.fsyncs, 5, "one fsync per solo append under Always");
        drop(store);

        let (store, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.ops.len(), 5);
        let seqs: Vec<u64> = rec.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(rec.report.last_seq, 5);
        assert_eq!(store.last_seq(), 5, "appends resume past recovery");
        assert_eq!(rec.into_state().0, inst);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_are_each_durable() {
        let dir = tmpdir("concurrent");
        let (inst, ics) = seed();
        let store =
            Arc::new(DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                let inst = inst.clone();
                std::thread::spawn(move || {
                    (0..4)
                        .map(|k| {
                            let mut delta = InstanceDelta::default();
                            delta.added.insert(atom(&inst, &format!("t{t}w{k}"), "y"));
                            store.append_delta(&delta).unwrap()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            (1..=32).collect::<Vec<u64>>(),
            "each seq handed out once"
        );
        let stats = store.stats();
        assert_eq!(
            (stats.appends, stats.fsyncs),
            (32, 32),
            "one fsync per acknowledged append"
        );
        drop(store);

        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.ops.len(), 32, "every acknowledged frame recovered");
        assert_eq!(rec.into_state().0.len(), 33);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn constraint_frames_recover_without_compaction() {
        let dir = tmpdir("confr");
        let schema = Schema::builder()
            .relation("r", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let inst = Instance::empty(schema.clone());
        let store =
            DurableStore::create(&dir, &inst, &IcSet::default(), StoreOptions::default()).unwrap();
        let con: Constraint = cqa_constraints::Nnc::new(&schema, "nn", "r", 0)
            .unwrap()
            .into();
        assert_eq!(store.append_constraint(&con).unwrap(), 1);
        let stats = store.stats();
        assert_eq!(stats.constraint_frames, 1);
        assert_eq!(stats.compactions, 0, "constraint append is O(delta)");
        drop(store);

        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(rec.ics.is_empty(), "snapshot predates the constraint");
        assert_eq!(rec.report.constraint_frames, 1);
        assert_eq!(rec.report.frames_applied, 1);
        match &rec.ops[..] {
            [(1, WalOp::Constraint(c))] => assert_eq!(c, &con),
            other => panic!("expected one constraint op, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_compaction_rewrites_only_dirty_segments() {
        let dir = tmpdir("incr");
        let schema = Schema::builder()
            .relation("hot", ["x", "y"])
            .relation("cold", ["x", "y"])
            .finish()
            .unwrap()
            .into_shared();
        let mut inst = Instance::empty(schema.clone());
        inst.insert_named("cold", [s("frozen"), s("row")]).unwrap();
        let ics = IcSet::default();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();

        // Touch only `hot`, then compact: `cold`'s segment is reused.
        let hot = schema.require("hot").unwrap();
        let a = DatabaseAtom::new(hot, Tuple::new(vec![s("h"), s("1")]));
        let mut delta = InstanceDelta::default();
        delta.added.insert(a.clone());
        store.append_delta(&delta).unwrap();
        inst.insert(a.rel, a.tuple).unwrap();
        store.compact(&inst, &ics).unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!((stats.segments_written, stats.segments_reused), (1, 1));

        // A full compaction rewrites everything.
        store.compact_full(&inst, &ics).unwrap();
        let stats = store.stats();
        assert_eq!((stats.segments_written, stats.segments_reused), (3, 1));
        drop(store);

        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.snapshot_instance, inst);
        assert!(rec.ops.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_ops_mark_their_relations_dirty() {
        // Deltas that live only in the WAL must be folded into fresh
        // segments at the next compaction even though this handle never
        // appended them.
        let dir = tmpdir("recdirty");
        let (mut inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        let a = atom(&inst, "walonly", "y");
        let mut delta = InstanceDelta::default();
        delta.added.insert(a.clone());
        store.append_delta(&delta).unwrap();
        inst.insert(a.rel, a.tuple).unwrap();
        drop(store);

        let (store, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.ops.len(), 1);
        store.compact(&inst, &ics).unwrap();
        let stats = store.stats();
        assert_eq!(
            stats.segments_written, 1,
            "recovered delta makes its relation's segment dirty"
        );
        drop(store);
        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.snapshot_instance, inst, "compacted state holds the row");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_wal_and_survives_reopen() {
        let dir = tmpdir("compact");
        let (mut inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        for k in 0..3 {
            let a = atom(&inst, &format!("c{k}"), "y");
            let mut delta = InstanceDelta::default();
            delta.added.insert(a.clone());
            store.append_delta(&delta).unwrap();
            inst.insert(a.rel, a.tuple).unwrap();
        }
        store.compact(&inst, &ics).unwrap();
        assert_eq!(store.last_seq(), 3, "seq survives compaction");
        // One more write after compaction.
        let a = atom(&inst, "post", "y");
        let mut delta = InstanceDelta::default();
        delta.added.insert(a.clone());
        assert_eq!(store.append_delta(&delta).unwrap(), 4);
        inst.insert(a.rel, a.tuple).unwrap();
        drop(store);

        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.report.snapshot_last_seq, 3);
        assert_eq!(rec.report.frames_applied, 1);
        assert_eq!(rec.report.frames_skipped, 0);
        assert_eq!(rec.into_state().0, inst);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_crash_window_skips_covered_frames() {
        // Simulate: snapshot written at seq 2, but the WAL reset never
        // happened (crash between the two steps). Recovery must skip the
        // covered frames instead of double-applying them.
        let dir = tmpdir("window");
        let (mut inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        for k in 0..2 {
            let a = atom(&inst, &format!("v{k}"), "y");
            let mut delta = InstanceDelta::default();
            delta.added.insert(a.clone());
            store.append_delta(&delta).unwrap();
            inst.insert(a.rel, a.tuple).unwrap();
        }
        drop(store);
        // Write the snapshot directly, bypassing the WAL reset.
        snapshot::write(&dir, &inst, &ics, 2, None).unwrap();

        let (store, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.report.frames_skipped, 2);
        assert_eq!(rec.report.frames_applied, 0);
        assert_eq!(rec.snapshot_instance, inst);
        assert_eq!(store.last_seq(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_manifest_tmp_and_orphan_segments_are_swept() {
        let dir = tmpdir("tmp");
        let (inst, ics) = seed();
        DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        let tmp = dir.join("manifest.tmp");
        let orphan = dir.join("seg-0-77");
        fs::write(&tmp, b"half-written garbage").unwrap();
        fs::write(&orphan, b"unreferenced segment").unwrap();
        let (_, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(!tmp.exists(), "stale tmp removed");
        assert!(!orphan.exists(), "orphaned segment removed");
        assert_eq!(rec.snapshot_instance, inst);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wants_compaction_respects_floor_and_fraction() {
        let dir = tmpdir("wants");
        let (inst, ics) = seed();
        // No floor: any WAL bigger than the snapshot triggers.
        let opts = StoreOptions {
            compact_min_wal_bytes: 0,
            ..StoreOptions::default()
        };
        let store = DurableStore::create(&dir, &inst, &ics, opts).unwrap();
        assert!(!store.wants_compaction().unwrap(), "empty WAL never wants");
        let big = "x".repeat(store.snapshot_bytes() as usize);
        let mut delta = InstanceDelta::default();
        delta.added.insert(atom(&inst, &big, "y"));
        store.append_delta(&delta).unwrap();
        assert!(store.wants_compaction().unwrap());
        // With the default 64 KiB floor the same WAL is left alone.
        let (floored, _) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(!floored.wants_compaction().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_surfaces_in_report_and_keeps_prefix() {
        let dir = tmpdir("torn");
        let (mut inst, ics) = seed();
        let store = DurableStore::create(&dir, &inst, &ics, StoreOptions::default()).unwrap();
        for k in 0..3 {
            let a = atom(&inst, &format!("t{k}"), "y");
            let mut delta = InstanceDelta::default();
            delta.added.insert(a.clone());
            store.append_delta(&delta).unwrap();
            inst.insert(a.rel, a.tuple).unwrap();
        }
        drop(store);
        // Tear mid-frame.
        let wal_path = dir.join("wal");
        let len = fs::metadata(&wal_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (store, rec) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(rec.report.frames_applied, 2, "good prefix survives");
        assert!(rec.report.bytes_truncated > 0);
        assert_eq!(rec.report.last_seq, 2);
        assert_eq!(store.last_seq(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
