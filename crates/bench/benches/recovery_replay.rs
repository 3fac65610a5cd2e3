//! Bench: crash recovery on the WAL-length axis.
//!
//! `replay/N` times what `Database::open` does before it builds the
//! handle: `DurableStore::open` (manifest and segment reads, WAL scan)
//! plus `Recovered::into_state` (the surviving deltas applied to the
//! snapshot, in sequence order). The store's snapshot holds ~6000 atoms
//! (Example-19 shape, 2 key conflicts, 1 dangling reference) and its WAL
//! holds N single-insert deltas, N ∈ {10, 100, 1000}.
//!
//! Recovery grounds nothing: the reopened database's caches start empty
//! and fill on the first call that needs them. `bench_check` gates
//! `replay/1000` against the committed baseline; that `open` leaves the
//! caches untouched is pinned by the counters in `tests/persistence.rs`.

use cqa_bench::harness::Harness;
use cqa_relational::{s, DatabaseAtom, InstanceDelta};
use cqa_storage::{DurableStore, FsyncPolicy, StoreOptions};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Clean pairs in the snapshot: ~2·N atoms.
const CLEAN: usize = 3000;

fn options() -> StoreOptions {
    StoreOptions {
        // Replay cost is the subject, not fsync latency; and compaction
        // must not fold the WAL away mid-recording.
        fsync: FsyncPolicy::Never,
        compact_min_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    }
}

/// A store whose snapshot holds the base workload and whose WAL holds
/// `n` single-insert deltas (fresh R rows, never conflicting).
fn store_with_wal(n: usize, w: &cqa_bench::Workload) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-bench-recovery-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::create(&dir, &w.instance, &w.ics, options()).unwrap();
    let rel = w.instance.schema().rel_id("R").unwrap();
    for k in 0..n {
        let mut delta = InstanceDelta::default();
        delta.added.insert(DatabaseAtom::new(
            rel,
            [s(&format!("w{k}")), s("wy")].into(),
        ));
        store.append_delta(&delta).unwrap();
    }
    store.sync().unwrap();
    dir
}

/// The timed region: open the store and replay its WAL onto the
/// snapshot.
fn recover(dir: &Path) -> usize {
    let (_store, rec) = DurableStore::open(dir, options()).unwrap();
    let (instance, _ics) = rec.into_state();
    instance.len()
}

fn recovery_replay() {
    let mut group = Harness::new("recovery_replay");
    let w = cqa_bench::example19_scaled(CLEAN, 2, 1, 31);
    for &n in &[10usize, 100, 1000] {
        let dir = store_with_wal(n, &w);
        group.bench(format!("replay/{n}"), || black_box(recover(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn main() {
    recovery_replay();
}
