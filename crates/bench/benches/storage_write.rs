//! Bench: the cqa-storage write path — incremental vs full segment
//! compaction, and constraint-frame append latency.
//!
//! Two questions, one with a within-run gate and one a recorded
//! headline:
//!
//! * `compact_incremental/20` vs `compact_full/20` — a 20-relation
//!   instance (200 rows each) with 2 relations dirty (10% churn).
//!   Incremental compaction rewrites the 2 dirty segments and the
//!   manifest, re-referencing the other 18; the full series rewrites
//!   every segment. `bench_check` enforces `incremental ≤ 0.3 × full`
//!   within the run — O(changed relations), not O(instance).
//! * `add_constraint/1` — latency of appending one constraint frame
//!   under `Always`: a single WAL append + fsync, never a snapshot
//!   rewrite; the absence of compaction is pinned by
//!   `tests/persistence.rs`.

use cqa_bench::harness::Harness;
use cqa_constraints::{Constraint, IcSet, Nnc};
use cqa_relational::{s, DatabaseAtom, Instance, InstanceDelta, RelId, Schema, Tuple};
use cqa_storage::{DurableStore, FsyncPolicy, StoreOptions};
use std::hint::black_box;
use std::path::PathBuf;

/// Relations in the compaction instance; 10% churn = 2 dirty.
const RELS: usize = 20;
const DIRTY_RELS: usize = 2;
const ROWS_PER_REL: usize = 200;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-bench-storage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 20-relation instance (200 rows each) and a store whose automatic
/// compaction is disabled — the bench calls `compact`/`compact_full`
/// explicitly after dirtying exactly `DIRTY_RELS` relations.
fn compaction_store(tag: &str) -> (DurableStore, Instance, PathBuf) {
    let mut b = Schema::builder();
    for r in 0..RELS {
        b = b.relation_with_arity(format!("rel{r}"), 2);
    }
    let schema = b.finish().unwrap().into_shared();
    let mut inst = Instance::empty(schema.clone());
    for r in 0..RELS {
        for t in 0..ROWS_PER_REL {
            inst.insert(
                RelId(r as u32),
                Tuple::new([s(&format!("r{r}t{t}")), s("y")]),
            )
            .unwrap();
        }
    }
    let options = StoreOptions {
        // Dirty-marking appends are setup, not the subject; segment and
        // manifest writes sync unconditionally regardless of policy.
        fsync: FsyncPolicy::Never,
        compact_min_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    let dir = scratch(tag);
    let store = DurableStore::create(&dir, &inst, &IcSet::default(), options).unwrap();
    (store, inst, dir)
}

/// Mark `DIRTY_RELS` relations dirty via one appended delta — the 10%
/// churn every timed compaction folds in.
fn dirty(store: &DurableStore) {
    let mut delta = InstanceDelta::default();
    for r in 0..DIRTY_RELS {
        delta.added.insert(DatabaseAtom::new(
            RelId(r as u32),
            [s("hot"), s("row")].into(),
        ));
    }
    store.append_delta(&delta).unwrap();
}

fn storage_write() {
    let mut group = Harness::new("storage_write");

    // -- Incremental vs full compaction at 10% relations changed --
    let (store, inst, dir) = compaction_store("compact");
    let ics = IcSet::default();
    let full_ns = group
        .bench_with_setup(
            format!("compact_full/{RELS}"),
            || dirty(&store),
            |()| store.compact_full(&inst, &ics).unwrap(),
        )
        .median_ns;
    let incr_ns = group
        .bench_with_setup(
            format!("compact_incremental/{RELS}"),
            || dirty(&store),
            |()| store.compact(&inst, &ics).unwrap(),
        )
        .median_ns;
    let stats = store.stats();
    let ratio = incr_ns as f64 / full_ns.max(1) as f64;
    println!(
        "  -> incremental vs full compaction at {DIRTY_RELS}/{RELS} dirty: {:.1}x faster ({ratio:.3}x, target <= 0.3)",
        full_ns as f64 / incr_ns.max(1) as f64
    );
    println!(
        "  -> segments written {} vs reused {} across {} compactions",
        stats.segments_written, stats.segments_reused, stats.compactions
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // -- Constraint-frame append latency --
    // Compaction disabled, so the timed region is one append + fsync.
    let schema = Schema::builder()
        .relation("r", ["x", "y"])
        .finish()
        .unwrap()
        .into_shared();
    let options = StoreOptions {
        fsync: FsyncPolicy::Always,
        compact_min_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    let dir = scratch("constraint");
    let store = DurableStore::create(
        &dir,
        &Instance::empty(schema.clone()),
        &IcSet::default(),
        options,
    )
    .unwrap();
    let con: Constraint = Nnc::new(&schema, "nn_bench", "r", 0).unwrap().into();
    group.bench("add_constraint/1", || {
        black_box(store.append_constraint(&con).unwrap())
    });
    assert_eq!(
        store.stats().compactions,
        0,
        "a constraint append must never trigger compaction"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

fn main() {
    storage_write();
}
