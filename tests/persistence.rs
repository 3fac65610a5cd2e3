//! Facade-level durability: `Database::persistent` / `Database::open`
//! round-trips, recovery reports, corrupted-tail handling, and the cache
//! trajectory after a reopen: `open` grounds and scans nothing, the
//! first program-route call grounds, and churn after it regrounds
//! instead of rebuilding. A store whose constraints have no repair
//! program still reopens.
//!
//! Every test owns a scratch directory under the system temp dir and
//! cleans it up on entry, so re-runs and parallel tests never collide.

use cqa::core::{CoreError, GroundingCacheStats, WorklistCacheStats};
use cqa::storage::{FsyncPolicy, StoreOptions};
use cqa::{Database, Error};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Example-19 shape: one key conflict (2 repairs), an FK, a null.
const SCRIPT: &str = "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
     CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
     INSERT INTO r VALUES ('a', 'b'), ('a', 'c');
     INSERT INTO s VALUES (NULL, 'a');";

fn seeded(dir: &PathBuf) -> Database {
    let catalog = cqa::sql::parse_script(SCRIPT).unwrap();
    Database::persistent(dir, catalog.instance, catalog.constraints).unwrap()
}

#[test]
fn create_churn_reopen_round_trips() {
    let dir = scratch("roundtrip");
    let mut db = seeded(&dir);
    assert!(db.is_persistent());
    assert!(db.recovery_report().is_none(), "fresh stores don't recover");

    // Churn: two effective singles, one batch, one no-op (never logged).
    assert!(db.insert("r", [cqa::s("w1"), cqa::s("y")]).unwrap());
    assert!(db.delete("r", [cqa::s("a"), cqa::s("b")]).unwrap());
    assert!(!db.insert("r", [cqa::s("w1"), cqa::s("y")]).unwrap());
    assert_eq!(
        db.insert_many("s", (0..3).map(|k| [cqa::s(&format!("u{k}")), cqa::s("a")]),)
            .unwrap(),
        3
    );
    db.sync().unwrap();

    let want_atoms: Vec<_> = db.instance().atoms().collect();
    let want_repairs = db.repairs().unwrap();
    let want_answers = db.consistent_answers("q(v) :- s(u, v).").unwrap();
    drop(db);

    let back = Database::open(&dir).unwrap();
    assert!(back.is_persistent());
    let report = back.recovery_report().expect("opened stores report");
    // 3 effective frames: insert, delete, insert_many (the no-op insert
    // never reached the WAL).
    assert_eq!(report.frames_applied, 3);
    assert_eq!(report.frames_skipped, 0);
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(report.last_seq, 3);
    assert_eq!(report.snapshot_last_seq, 0);

    let got_atoms: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got_atoms, want_atoms, "instance survives byte-identically");
    assert_eq!(back.repairs().unwrap(), want_repairs);
    assert_eq!(
        back.consistent_answers("q(v) :- s(u, v).").unwrap(),
        want_answers
    );
}

#[test]
fn reopen_then_churn_regrounds_not_rebuilds() {
    // Seed the *snapshot* with enough clean rows that the post-reopen
    // churn stays under the rebuild escape-hatch fraction — the
    // incremental path is what this test pins. The four pads are the WAL
    // tail `open` replays.
    let dir = scratch("warm");
    let mut script = String::from(SCRIPT);
    for k in 0..20 {
        script.push_str(&format!("INSERT INTO r VALUES ('clean{k}', 'z');"));
    }
    let catalog = cqa::sql::parse_script(&script).unwrap();
    let mut db = Database::persistent(&dir, catalog.instance, catalog.constraints).unwrap();
    for k in 0..4 {
        assert!(db
            .insert("r", [cqa::s(&format!("pad{k}")), cqa::s("z")])
            .unwrap());
    }
    drop(db);

    // Recovery rebuilds the instance and nothing else: no grounding, no
    // root violation scan.
    let mut back = Database::open(&dir).unwrap();
    assert_eq!(
        back.caches().grounding.stats(),
        GroundingCacheStats::default(),
        "open grounds nothing"
    );
    assert_eq!(
        back.caches().worklist.stats(),
        WorklistCacheStats::default(),
        "open scans nothing"
    );

    // The first program-route call grounds the recovered state once.
    let first = back.repairs_via_program().unwrap();
    let stats = back.caches().grounding.stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "first call grounds");

    // Churn after reopen evolves that grounding incrementally.
    assert!(back.insert("r", [cqa::s("post"), cqa::s("z")]).unwrap());
    assert!(back.delete("r", [cqa::s("pad0"), cqa::s("z")]).unwrap());
    let second = back.repairs_via_program().unwrap();
    let stats = back.caches().grounding.stats();
    assert_eq!(stats.rebuilds, 0, "churn after reopen must not rebuild");
    assert_eq!(stats.regrounds, 1, "…it regrounds incrementally");
    // The clean churn rows shift the repair instances but not the
    // conflict structure: still the one key conflict, two resolutions.
    assert_eq!(first.len(), second.len());
    assert_eq!(second, back.repairs().unwrap());
}

#[test]
fn corrupted_wal_tail_is_detected_and_dropped() {
    let dir = scratch("bitflip");
    let mut db = seeded(&dir);
    for k in 0..5 {
        assert!(db
            .insert("r", [cqa::s(&format!("w{k}")), cqa::s("y")])
            .unwrap());
    }
    let want_after_4: Vec<_> = {
        // What the instance looked like before the 5th insert.
        let catalog = cqa::sql::parse_script(SCRIPT).unwrap();
        let mut oracle = Database::new(catalog.instance, catalog.constraints);
        for k in 0..4 {
            oracle
                .insert("r", [cqa::s(&format!("w{k}")), cqa::s("y")])
                .unwrap();
        }
        oracle.instance().atoms().collect()
    };
    drop(db);

    // Flip one bit in the last frame's payload: CRC must catch it, the
    // frame (and only that frame) must be dropped.
    let wal = dir.join("wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let back = Database::open(&dir).unwrap();
    let report = back.recovery_report().unwrap();
    assert_eq!(report.frames_applied, 4, "the flipped frame is dropped");
    assert!(report.bytes_truncated > 0, "…and reported as truncated");
    let got: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got, want_after_4, "state = everything before the bad frame");
    drop(back);

    // The open itself truncated the bad tail: a second open is clean.
    let again = Database::open(&dir).unwrap();
    let report = again.recovery_report().unwrap();
    assert_eq!(report.frames_applied, 4);
    assert_eq!(report.bytes_truncated, 0, "tail already healed");
    drop(again);

    // Truncation mid-frame at every offset over the last 40 bytes: never
    // a panic, always a clean open with a ≤4-frame replay.
    let healthy = std::fs::read(&wal).unwrap();
    for cut in 1..=40usize.min(healthy.len() - 8) {
        std::fs::write(&wal, &healthy[..healthy.len() - cut]).unwrap();
        let db = Database::open(&dir).unwrap();
        assert!(db.recovery_report().unwrap().frames_applied <= 4);
        drop(db);
        std::fs::write(&wal, &healthy).unwrap();
    }

    // A mangled WAL magic is a hard error — corrupt, not silently empty —
    // and must surface as `Err`, never a panic.
    let mut mangled = healthy.clone();
    mangled[0] ^= 0xFF;
    std::fs::write(&wal, &mangled).unwrap();
    match Database::open(&dir) {
        Err(Error::Storage(_)) => {}
        other => panic!("wrong-magic WAL must be a storage error, got {other:?}"),
    }
    std::fs::write(&wal, &healthy).unwrap();

    // A truncated *manifest* is also a hard error, never a panic.
    let snap = dir.join("manifest");
    let snap_bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &snap_bytes[..snap_bytes.len() / 2]).unwrap();
    assert!(matches!(Database::open(&dir), Err(Error::Storage(_))));
    std::fs::write(&snap, &snap_bytes).unwrap();
    assert!(Database::open(&dir).is_ok(), "restored store opens again");
}

#[test]
fn constraints_persist_as_wal_frames() {
    let dir = scratch("constraints");
    let mut db = seeded(&dir);
    let before = db.repairs().unwrap();
    let n_constraints = db.constraints().len();
    // A new constraint is an O(delta) WAL append — a tagged constraint
    // frame, not a forced snapshot rewrite.
    db.add_constraint("nn_s_u", "not null s(u)").unwrap();
    let with_nnc = db.repairs().unwrap();
    assert_ne!(before, with_nnc, "the NNC changes the repair space");
    assert!(db.insert("r", [cqa::s("late"), cqa::s("y")]).unwrap());
    drop(db);

    let back = Database::open(&dir).unwrap();
    assert_eq!(
        back.constraints().len(),
        n_constraints + 1,
        "the script's constraints plus the late NNC all survive"
    );
    let report = back.recovery_report().unwrap();
    assert_eq!(
        report.frames_applied, 2,
        "the constraint frame and the insert both ride the WAL"
    );
    assert_eq!(report.constraint_frames, 1);
    assert_eq!(
        report.snapshot_last_seq, 0,
        "no compaction happened on the way"
    );
    assert_eq!(back.repairs().unwrap().len(), with_nnc.len());
}

/// A constraint with a repeated existential variable (the shape of the
/// paper's Example 13) has Definition-7 repairs but no Definition-9
/// program. A store holding one must still reopen with every
/// acknowledged write; only the program route refuses.
#[test]
fn store_without_a_repair_program_reopens() {
    let dir = scratch("noprogram");
    let catalog = cqa::sql::parse_script(
        "CREATE TABLE p (a TEXT, b TEXT);
         CREATE TABLE q (a TEXT, b TEXT, c TEXT);",
    )
    .unwrap();
    let mut db = Database::persistent(&dir, catalog.instance, catalog.constraints).unwrap();
    db.add_constraint("rep", "p(x, y) -> exists z: q(x, z, z)")
        .unwrap();
    assert!(db.insert("p", [cqa::s("a"), cqa::s("b")]).unwrap());
    let want_atoms: Vec<_> = db.instance().atoms().collect();
    let want_repairs = db.repairs().unwrap();
    drop(db);

    let back = Database::open(&dir).unwrap();
    let got_atoms: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got_atoms, want_atoms);
    assert_eq!(back.repairs().unwrap(), want_repairs);
    assert!(matches!(
        back.repairs_via_program(),
        Err(Error::Core(CoreError::UnsupportedByProgram { .. }))
    ));
}

/// ISSUE 10 acceptance: `add_constraint` on a persistent database is an
/// O(delta) append, pinned by the storage counters — no compaction, no
/// segment rewrite, exactly one constraint frame.
#[test]
fn add_constraint_is_an_append_not_a_compaction() {
    let dir = scratch("odelta");
    let mut db = seeded(&dir);
    let n_constraints = db.constraints().len();
    let before = db.storage_stats().unwrap();
    assert_eq!(before.compactions, 0);
    db.add_constraint("nn_s_u", "not null s(u)").unwrap();
    let after = db.storage_stats().unwrap();
    assert_eq!(
        after.compactions, 0,
        "constraint change must not trigger compaction"
    );
    assert_eq!(after.segments_written, 0, "…or any segment rewrite");
    assert_eq!(after.appends - before.appends, 1, "exactly one WAL frame");
    assert_eq!(after.constraint_frames - before.constraint_frames, 1);

    // The constraint still folds into the manifest at the next ordinary
    // compaction, after which the WAL no longer carries it.
    drop(db);
    let back = Database::open(&dir).unwrap();
    assert_eq!(back.recovery_report().unwrap().constraint_frames, 1);
    assert_eq!(back.constraints().len(), n_constraints + 1);
}

/// ISSUE 10 satellite: one cross-relation batch = one WAL frame and
/// (under `Always`) one fsync, not one per row or per relation.
#[test]
fn cross_relation_batches_coalesce_frames_and_fsyncs() {
    let dir = scratch("batchall");
    let mut db = seeded(&dir);
    let before = db.storage_stats().unwrap();
    let rows: Vec<(&str, [cqa::DbValue; 2])> = vec![
        ("r", [cqa::s("m0"), cqa::s("y")]),
        ("r", [cqa::s("m1"), cqa::s("y")]),
        ("s", [cqa::s("m2"), cqa::s("a")]),
        ("r", [cqa::s("a"), cqa::s("c")]), // duplicate: filtered, never logged
    ];
    assert_eq!(db.insert_all(rows).unwrap(), 3);
    let after = db.storage_stats().unwrap();
    assert_eq!(
        after.appends - before.appends,
        1,
        "three effective rows over two relations = one frame"
    );
    assert_eq!(
        after.fsyncs - before.fsyncs,
        1,
        "…and one fsync under Always"
    );

    assert_eq!(
        db.delete_all(vec![
            ("r", [cqa::s("m0"), cqa::s("y")]),
            ("s", [cqa::s("m2"), cqa::s("a")]),
            ("s", [cqa::s("ghost"), cqa::s("a")]), // absent: filtered
        ])
        .unwrap(),
        2
    );
    let final_stats = db.storage_stats().unwrap();
    assert_eq!(final_stats.appends - after.appends, 1);
    assert_eq!(final_stats.fsyncs - after.fsyncs, 1);
    // An all-no-op batch writes nothing.
    assert_eq!(
        db.insert_all(vec![("r", [cqa::s("a"), cqa::s("c")])])
            .unwrap(),
        0
    );
    assert_eq!(db.storage_stats().unwrap().appends, final_stats.appends);
    let want: Vec<_> = db.instance().atoms().collect();
    drop(db);

    let back = Database::open(&dir).unwrap();
    assert_eq!(back.recovery_report().unwrap().frames_applied, 2);
    let got: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got, want, "cross-relation batches replay faithfully");
}

#[test]
fn batch_mutators_write_one_frame_each() {
    let dir = scratch("frames");
    let mut db = seeded(&dir);
    assert_eq!(
        db.insert_many("r", (0..5).map(|k| [cqa::s(&format!("b{k}")), cqa::s("y")]))
            .unwrap(),
        5
    );
    assert!(db.insert("r", [cqa::s("solo"), cqa::s("y")]).unwrap());
    assert_eq!(
        db.delete_many(
            "r",
            [[cqa::s("b0"), cqa::s("y")], [cqa::s("b1"), cqa::s("y")]]
        )
        .unwrap(),
        2
    );
    // All-no-op batches write nothing at all.
    assert_eq!(
        db.insert_many("r", [[cqa::s("b2"), cqa::s("y")]]).unwrap(),
        0
    );
    drop(db);

    let back = Database::open(&dir).unwrap();
    let report = back.recovery_report().unwrap();
    assert_eq!(
        (report.frames_applied, report.last_seq),
        (3, 3),
        "5-row batch + single + 2-row batch = exactly 3 frames"
    );
    assert_eq!(
        back.instance().len(),
        3 + 5 + 1 - 2,
        "seeded 3 atoms, +5 batch, +1 single, -2 batch"
    );
}

#[test]
fn a_bad_row_fails_its_batch_before_the_wal() {
    use cqa::relational::{RelationalError, Tuple};
    let dir = scratch("badrow");
    let mut db = seeded(&dir);
    let appends = db.storage_stats().unwrap().appends;
    let want: Vec<_> = db.instance().atoms().collect();

    // Two new rows, then an unknown relation as the last row.
    let rows: Vec<(&str, [cqa::DbValue; 2])> = vec![
        ("r", [cqa::s("new0"), cqa::s("y")]),
        ("s", [cqa::s("new1"), cqa::s("a")]),
        ("nope", [cqa::s("x"), cqa::s("y")]),
    ];
    assert!(matches!(
        db.insert_all(rows),
        Err(Error::Relational(RelationalError::UnknownRelation(_)))
    ));
    // A present row, then one of the wrong arity.
    let tuples = [
        Tuple::new([cqa::s("a"), cqa::s("b")]),
        Tuple::new([cqa::s("a")]),
    ];
    assert!(matches!(
        db.delete_many("r", tuples),
        Err(Error::Relational(RelationalError::ArityMismatch { .. }))
    ));

    assert_eq!(
        db.storage_stats().unwrap().appends,
        appends,
        "nothing logged"
    );
    let got: Vec<_> = db.instance().atoms().collect();
    assert_eq!(got, want, "nothing applied");
    drop(db);
    let back = Database::open(&dir).unwrap();
    let got: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got, want, "nothing recovered");
}

#[test]
fn store_options_knobs_are_honoured() {
    // FsyncPolicy::Never + an aggressive compaction fraction: churn folds
    // into snapshots instead of an ever-growing WAL, and reopen sees a
    // recent snapshot horizon with few (or zero) residual frames.
    let dir = scratch("options");
    let catalog = cqa::sql::parse_script(SCRIPT).unwrap();
    let options = StoreOptions {
        fsync: FsyncPolicy::Never,
        compact_num: 1,
        compact_den: 4,
        compact_min_wal_bytes: 0,
    };
    let mut db =
        Database::persistent_with(&dir, catalog.instance, catalog.constraints, options).unwrap();
    for k in 0..40 {
        assert!(db
            .insert("r", [cqa::s(&format!("n{k}")), cqa::s("y")])
            .unwrap());
    }
    let want: Vec<_> = db.instance().atoms().collect();
    drop(db);

    let back = Database::open(&dir).unwrap();
    let report = back.recovery_report().unwrap();
    assert!(
        report.snapshot_last_seq > 0,
        "aggressive fraction forced at least one compaction"
    );
    assert_eq!(report.frames_skipped, 0, "reset WALs hold no stale frames");
    let got: Vec<_> = back.instance().atoms().collect();
    assert_eq!(got, want);

    // Reopening an *occupied* path with `persistent` is refused.
    let catalog = cqa::sql::parse_script(SCRIPT).unwrap();
    assert!(matches!(
        Database::persistent(&dir, catalog.instance, catalog.constraints),
        Err(Error::Storage(_))
    ));
    // And opening an empty path is NotAStore, not a panic.
    assert!(matches!(
        Database::open(scratch("void")),
        Err(Error::Storage(_))
    ));
}

/// ISSUE 7 satellite: the write role of a persistent store does not
/// travel with `Clone`. Two handles with divergent in-memory views
/// interleaving WAL appends would leave the log describing a state
/// neither holds, so clones are read-only views: every mutator returns
/// `Error::ReadOnlyClone`, queries still work, and in-memory databases
/// keep their freely-cloning behaviour.
#[test]
fn clones_of_persistent_handles_are_read_only() {
    let dir = scratch("clone");
    let mut db = seeded(&dir);
    assert!(db.is_writer());

    let mut view = db.clone();
    assert!(!view.is_writer(), "the write role stays with the opener");
    assert!(matches!(
        view.insert("r", [cqa::s("z"), cqa::s("z")]),
        Err(Error::ReadOnlyClone)
    ));
    assert!(matches!(
        view.delete("r", [cqa::s("a"), cqa::s("b")]),
        Err(Error::ReadOnlyClone)
    ));
    assert!(matches!(
        view.insert_many("r", vec![[cqa::s("z"), cqa::s("z")]]),
        Err(Error::ReadOnlyClone)
    ));
    assert!(matches!(
        view.delete_many("r", vec![[cqa::s("a"), cqa::s("b")]]),
        Err(Error::ReadOnlyClone)
    ));
    assert!(matches!(
        view.add_constraint("nnc_u", "NOT NULL s(u)"),
        Err(Error::ReadOnlyClone)
    ));
    // A rejected mutation leaves no trace: memory, then (below) disk.
    assert_eq!(view.instance().len(), db.instance().len());
    // The view still answers queries (it shares the cache bundle).
    assert_eq!(view.repairs().unwrap().len(), 2);
    // A clone of the clone is still read-only.
    assert!(!view.clone().is_writer());

    // The writer keeps writing; the view keeps its snapshot of state.
    assert!(db.insert("r", [cqa::s("w"), cqa::s("y")]).unwrap());
    assert!(db.instance().len() > view.instance().len());
    drop(view);
    drop(db);

    // Exactly one frame reached the WAL: the writer's insert.
    let back = Database::open(&dir).unwrap();
    let report = back.recovery_report().unwrap();
    assert_eq!(report.last_seq, 1, "clone mutations never reached the log");
    // The reopened handle holds the write role again.
    assert!(back.is_writer());

    // In-memory databases are unaffected: clones stay writable.
    let mem = Database::from_script(SCRIPT).unwrap();
    let mut mem_clone = mem.clone();
    assert!(mem_clone.is_writer());
    assert!(mem_clone.insert("r", [cqa::s("k"), cqa::s("k")]).unwrap());
}
