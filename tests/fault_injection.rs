//! Deterministic storage fault matrix (ISSUE 7 tentpole, part 1).
//!
//! Every byte the store moves goes through the [`Vfs`] seam, so this
//! suite can enumerate fault points instead of sampling them: a profile
//! run against `FaultScript::profile()` counts the workload's fsyncs,
//! writes, renames and removes, and the matrix then replays the same
//! workload once per operation index with exactly that operation
//! scripted to fail — fsync failures (including WAL append
//! fsyncs and segment/manifest syncs), short writes (WAL frames,
//! segment bodies, the manifest), ENOSPC byte budgets, lost renames at
//! the crash point between a fully-synced `manifest.tmp` and its
//! rename, lost removes (segment housekeeping), and bit-flips on read.
//! The churn itself spans two relations and includes an
//! `add_constraint` op, so constraint frames and the incremental
//! segment-reuse path both sit inside the fault window.
//!
//! The invariant under every point, checked against a never-faulted
//! in-memory oracle:
//!
//! * a failing call surfaces a **typed** [`Error::Storage`] — never a
//!   panic, never a hang — and either leaves the in-memory `Database`
//!   unchanged (the fault hit before the mutation was acknowledged) or
//!   the mutation was already durable and only housekeeping
//!   (compaction) failed after it;
//! * reopening the directory with a clean [`RealVfs`] — the post-crash
//!   process — recovers to **exactly** the durable horizon: the
//!   recovered state equals the oracle replayed to
//!   [`RecoveryReport::last_seq`], the horizon never drops below the
//!   acknowledged prefix and never exceeds the attempted one, and a
//!   second reopen is a fixpoint (nothing further to heal).
//!
//! A seeded randomized sweep then flips and truncates arbitrary bytes
//! of the WAL and snapshot directly: `Database::open` must never panic
//! and never return state beyond the durable horizon.

use cqa::relational::testing::XorShift;
use cqa::storage::{FaultScript, FaultVfs, FsyncPolicy, StoreOptions};
use cqa::{Database, Error};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cqa-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Nearly no constraints: the matrix is about bytes, not repairs, and a
/// trivially-satisfied IC set keeps each of the ~200 runs cheap. Two
/// relations, one of which the churn barely touches, so incremental
/// compaction exercises both the rewrite and the reuse path.
const SEED: &str = "CREATE TABLE r (x TEXT, y TEXT);
     CREATE TABLE t (p TEXT);
     INSERT INTO r VALUES ('a', 'b'), ('c', 'd');
     INSERT INTO t VALUES ('cold');";

/// Effective ops per run; op `k` ↔ WAL seq `k+1` (no-ops never reach
/// the WAL, and every op below is effective).
const OPS: usize = 10;

/// Op `k` of the deterministic churn. Two deletes target rows inserted
/// earlier in the same run, op 5 appends a constraint frame, op 8
/// dirties the second relation — the whole sequence stays effective.
fn apply_op(db: &mut Database, k: usize) -> Result<bool, Error> {
    match k {
        3 => db.delete("r", [cqa::s("w0"), cqa::s("y")]),
        // Satisfied by construction (no null ever lands in r.x), so the
        // repair space stays trivial; what matters is the tagged WAL
        // frame it appends.
        5 => db.add_constraint("nn_r_x", "not null r(x)").map(|()| true),
        7 => db.delete("r", [cqa::s("w4"), cqa::s("y")]),
        8 => db.insert("t", [cqa::s("hot")]),
        _ => db.insert("r", [cqa::s(&format!("w{k}")), cqa::s("y")]),
    }
}

/// Aggressive compaction so segment rewrites (fresh segments + fsyncs +
/// manifest tmp + rename + dir syncs) happen *during* the churn,
/// putting the whole compaction protocol inside the fault window.
fn options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        compact_num: 1,
        compact_den: 2,
        compact_min_wal_bytes: 0,
    }
}

/// The never-faulted oracle: seed + the first `n` ops, in memory.
fn oracle(n: usize) -> Database {
    let catalog = cqa::sql::parse_script(SEED).unwrap();
    let mut db = Database::new(catalog.instance, catalog.constraints);
    for k in 0..n {
        assert!(
            apply_op(&mut db, k).unwrap(),
            "oracle op {k} must be effective"
        );
    }
    db
}

/// Canonical, order-independent view of a database's atoms.
fn atoms(db: &Database) -> Vec<String> {
    let mut v: Vec<String> = db.instance().atoms().map(|a| format!("{a:?}")).collect();
    v.sort();
    v
}

/// What one faulted lifecycle acknowledged before it stopped.
struct RunResult {
    /// Ops durably acknowledged: `Ok` returns, plus an op whose mutation
    /// landed (WAL + memory) before housekeeping-only compaction failed.
    acked: usize,
    /// `acked`, plus one if the failing op had already attempted its WAL
    /// append (the frame may be wholly or partly on disk).
    attempted: usize,
    /// Did `Database::persistent_with_vfs` itself succeed?
    create_ok: bool,
}

/// Create + churn + sync under `script`, asserting the typed-error /
/// unchanged-memory contract at the fault itself.
fn run_workload(dir: &Path, script: FaultScript) -> RunResult {
    let _ = std::fs::remove_dir_all(dir);
    let vfs = FaultVfs::new(script);
    let catalog = cqa::sql::parse_script(SEED).unwrap();
    let db = Database::persistent_with_vfs(
        dir,
        catalog.instance,
        catalog.constraints,
        options(),
        Arc::new(vfs.clone()),
    );
    let mut db = match db {
        Ok(db) => db,
        Err(e) => {
            assert!(
                matches!(e, Error::Storage(_)),
                "create fault must be typed: {e}"
            );
            return RunResult {
                acked: 0,
                attempted: 0,
                create_ok: false,
            };
        }
    };
    let mut acked = 0;
    for k in 0..OPS {
        let before = atoms(&db);
        match apply_op(&mut db, k) {
            Ok(effective) => {
                assert!(effective, "op {k} must be effective");
                acked += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, Error::Storage(_)),
                    "op fault must be typed: {e}"
                );
                if atoms(&db) == before {
                    // Fault before acknowledgement: memory untouched, the
                    // frame may still be (partly) on disk.
                    return RunResult {
                        acked,
                        attempted: acked + 1,
                        create_ok: true,
                    };
                }
                // The mutation was durable (WAL frame synced, memory
                // applied) and only post-mutation compaction failed: the
                // op counts as acknowledged.
                assert_eq!(
                    atoms(&db),
                    atoms(&oracle(acked + 1)),
                    "an error after mutation must leave exactly the mutated state"
                );
                return RunResult {
                    acked: acked + 1,
                    attempted: acked + 1,
                    create_ok: true,
                };
            }
        }
    }
    if let Err(e) = db.sync() {
        assert!(
            matches!(e, Error::Storage(_)),
            "sync fault must be typed: {e}"
        );
    }
    RunResult {
        acked,
        attempted: acked,
        create_ok: true,
    }
}

/// Reopen `dir` with the real filesystem — the post-crash process — and
/// hold recovery to the durable-horizon contract.
fn check_reopen(dir: &Path, r: &RunResult, what: &str) {
    match Database::open_with(dir, options()) {
        Err(e) => {
            assert!(
                matches!(e, Error::Storage(_)),
                "[{what}] reopen fault must be typed: {e}"
            );
            assert!(
                !r.create_ok,
                "[{what}] a store that acknowledged its creation must always reopen"
            );
        }
        Ok(db) => {
            let report = db.recovery_report().expect("opened stores report").clone();
            let last = report.last_seq as usize;
            assert!(
                last >= r.acked,
                "[{what}] acknowledged writes lost: horizon {last} < acked {}",
                r.acked
            );
            assert!(
                last <= r.attempted,
                "[{what}] horizon {last} beyond attempted {}",
                r.attempted
            );
            assert_eq!(
                atoms(&db),
                atoms(&oracle(last)),
                "[{what}] recovered state must equal the oracle at seq {last}"
            );
            drop(db);
            // Healing is a fixpoint: the second open finds nothing torn.
            let again = Database::open_with(dir, options()).unwrap();
            let rep2 = again.recovery_report().unwrap();
            assert_eq!(
                rep2.last_seq as usize, last,
                "[{what}] horizon stable across reopens"
            );
            assert_eq!(
                rep2.bytes_truncated, 0,
                "[{what}] first open already healed the tail"
            );
            assert_eq!(atoms(&again), atoms(&oracle(last)));
        }
    }
}

/// The tentpole matrix: profile the workload's I/O, then fail each
/// operation index in turn. ISSUE 7 acceptance requires ≥ 20 points.
#[test]
fn fault_matrix_every_point_is_typed_or_recoverable() {
    let base = scratch("matrix");
    let dir = base.join("store");

    // Profile pass: count the workload's operations.
    let vfs = FaultVfs::new(FaultScript::profile());
    {
        let catalog = cqa::sql::parse_script(SEED).unwrap();
        let mut db = Database::persistent_with_vfs(
            &dir,
            catalog.instance,
            catalog.constraints,
            options(),
            Arc::new(vfs.clone()),
        )
        .unwrap();
        for k in 0..OPS {
            assert!(apply_op(&mut db, k).unwrap());
        }
        db.sync().unwrap();
    }
    let profile = vfs.counts();
    assert!(profile.fsyncs > 0 && profile.writes > 0 && profile.renames > 0);

    let mut points = 0usize;
    let mut run_point = |what: String, script: FaultScript| {
        let r = run_workload(&dir, script);
        check_reopen(&dir, &r, &what);
        points += 1;
    };

    // Keep each sweep to ~24 runs even if compaction inflates the counts.
    let stride = |n: u64| (n / 24).max(1);

    // Fail the Nth fsync (WAL append syncs, snapshot syncs, dir syncs),
    // both surviving the fault and dying at it.
    let s = stride(profile.fsyncs);
    for n in (1..=profile.fsyncs).step_by(s as usize) {
        run_point(format!("fsync#{n}"), FaultScript::default().fail_fsync(n));
        run_point(
            format!("fsync#{n}+crash"),
            FaultScript::default().fail_fsync(n).crash_after_fault(),
        );
    }

    // Short-write the Nth write: 3 bytes of a frame header or snapshot
    // body reach disk, the rest is torn.
    let s = stride(profile.writes);
    for n in (1..=profile.writes).step_by(s as usize) {
        run_point(
            format!("short-write#{n}"),
            FaultScript::default().short_write(n, 3),
        );
    }

    // ENOSPC at increasing byte budgets across the whole lifecycle.
    for i in 0..8u64 {
        let budget = profile.bytes_written * i / 8;
        run_point(
            format!("enospc@{budget}"),
            FaultScript::default().enospc_after(budget),
        );
    }

    // Lose the Nth rename — the crash point between a fully-synced
    // `manifest.tmp` and the `rename` — and die there.
    for n in 1..=profile.renames {
        run_point(
            format!("rename#{n}+crash"),
            FaultScript::default().fail_rename(n).crash_after_fault(),
        );
    }

    // Lose the Nth remove — replaced-segment housekeeping after an
    // incremental compaction. A lost remove must never corrupt: at
    // worst it leaves debris for the next open's sweep.
    assert!(
        profile.removes > 0,
        "churn must delete replaced segments for the remove sweep to bite"
    );
    let s = stride(profile.removes);
    for n in (1..=profile.removes).step_by(s as usize) {
        run_point(format!("remove#{n}"), FaultScript::default().fail_remove(n));
        run_point(
            format!("remove#{n}+crash"),
            FaultScript::default().fail_remove(n).crash_after_fault(),
        );
    }

    assert!(
        points >= 20,
        "matrix must enumerate ≥ 20 fault points, got {points}"
    );
    println!("fault matrix: {points} points, profile {profile:?}");
    let _ = std::fs::remove_dir_all(&base);
}

/// A failed append leaves nothing in the log: the handle goes on
/// accepting writes after the fault, and a reopen must hold exactly
/// what the handle acknowledged. Two inserts on a fresh store, the
/// first one faulted — its WAL fsync fails, its frame is short-written,
/// or its frame is short-written and the rollback's own fsync fails
/// too, which leaves the handle refusing appends.
#[test]
fn a_failed_append_never_reaches_the_log() {
    let base = scratch("failed-append");
    let dir = base.join("store");
    // Default compaction thresholds: two small inserts never compact,
    // so the WAL alone carries them to the reopen.
    let opts = || StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    };
    let create = |vfs: &FaultVfs| {
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = cqa::sql::parse_script(SEED).unwrap();
        Database::persistent_with_vfs(
            &dir,
            catalog.instance,
            catalog.constraints,
            opts(),
            Arc::new(vfs.clone()),
        )
        .unwrap()
    };
    let row = |k: &str| [cqa::s(k), cqa::s("y")];

    // Profile: the I/O of creating the store, then of one insert.
    let vfs = FaultVfs::new(FaultScript::profile());
    let mut db = create(&vfs);
    let created = vfs.counts();
    assert!(db.insert("r", row("w1")).unwrap());
    let one = vfs.counts();
    drop(db);
    assert_eq!(
        (one.writes - created.writes, one.fsyncs - created.fsyncs),
        (1, 1),
        "an append is one frame write and one fsync"
    );
    let (write, fsync) = (created.writes + 1, created.fsyncs + 1);

    let cases = [
        ("fsync", FaultScript::default().fail_fsync(fsync), false),
        (
            "short-write",
            FaultScript::default().short_write(write, 7),
            false,
        ),
        // The rollback's fsync follows the failed write directly.
        (
            "short-write+failed-rollback",
            FaultScript::default()
                .short_write(write, 7)
                .fail_fsync(fsync),
            true,
        ),
    ];
    for (what, script, poisoned) in cases {
        let vfs = FaultVfs::new(script);
        let mut db = create(&vfs);
        let results = [
            ("w1", db.insert("r", row("w1"))),
            ("w2", db.insert("r", row("w2"))),
        ];
        assert!(vfs.faults_fired() >= 1, "[{what}] the fault fired");
        assert!(results[0].1.is_err(), "[{what}] the faulted insert fails");
        match &results[1].1 {
            Err(Error::Storage(cqa::storage::StorageError::Poisoned)) if poisoned => {}
            Ok(true) if !poisoned => {}
            other => panic!("[{what}] unexpected second insert: {other:?}"),
        }
        let memory = atoms(&db);
        drop(db);

        let reopened = Database::open_with(&dir, opts()).unwrap();
        let recovered = atoms(&reopened);
        let r = reopened.instance().relation_named("r").unwrap();
        for (key, result) in &results {
            let held = r.contains(&cqa::relational::Tuple::new(row(key)));
            assert_eq!(
                held,
                result.is_ok(),
                "[{what}] {key} returned {result:?} but a reopen {} it",
                if held { "holds" } else { "lacks" }
            );
        }
        assert_eq!(
            memory, recovered,
            "[{what}] memory equals the reopened state"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Bit-flips on the read path of `Database::open`: a flipped snapshot
/// read fails its CRC with a typed error and leaves the disk intact; a
/// flipped WAL read is indistinguishable from on-disk corruption, so
/// open heals the log to the last verifiable frame — never past the
/// durable horizon, never a panic.
#[test]
fn read_corruption_on_open_is_typed_or_healed() {
    let base = scratch("readflip");

    // Profile how many reads one open performs.
    let healthy = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
        let catalog = cqa::sql::parse_script(SEED).unwrap();
        let mut db =
            Database::persistent_with(dir, catalog.instance, catalog.constraints, options())
                .unwrap();
        for k in 0..OPS {
            assert!(apply_op(&mut db, k).unwrap());
        }
        db.sync().unwrap();
    };
    let dir = base.join("store");
    healthy(&dir);
    let vfs = FaultVfs::new(FaultScript::profile());
    Database::open_with_vfs(&dir, options(), Arc::new(vfs.clone())).unwrap();
    let reads = vfs.counts().reads;
    assert!(reads > 0, "open must read");

    for n in 1..=reads {
        for offset in [0u64, 3, 9, 21, 64] {
            healthy(&dir);
            let what = format!("read#{n}@{offset}");
            let vfs = FaultVfs::new(FaultScript::default().flip_read(n, offset));
            match Database::open_with_vfs(&dir, options(), Arc::new(vfs)) {
                Err(e) => {
                    assert!(
                        matches!(e, Error::Storage(_)),
                        "[{what}] must be typed: {e}"
                    );
                    // The corruption was in the read buffer, not on disk:
                    // a clean reopen sees the full history.
                    let back = Database::open_with(&dir, options()).unwrap();
                    assert_eq!(back.recovery_report().unwrap().last_seq as usize, OPS);
                    assert_eq!(atoms(&back), atoms(&oracle(OPS)), "[{what}] disk intact");
                }
                Ok(db) => {
                    let last = db.recovery_report().unwrap().last_seq as usize;
                    assert!(
                        last <= OPS,
                        "[{what}] horizon {last} beyond attempted {OPS}"
                    );
                    assert_eq!(atoms(&db), atoms(&oracle(last)), "[{what}] oracle-equal");
                    drop(db);
                    // Whatever the flip made open truncate is truncated
                    // consistently: a clean reopen agrees.
                    let back = Database::open_with(&dir, options()).unwrap();
                    assert_eq!(back.recovery_report().unwrap().last_seq as usize, last);
                    assert_eq!(
                        atoms(&back),
                        atoms(&oracle(last)),
                        "[{what}] stable after heal"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Satellite: torn WAL tails are *reported*, not just healed —
/// `Database::recovery_report` surfaces the truncated byte count.
#[test]
fn torn_wal_tail_reports_nonzero_truncation() {
    let base = scratch("torn");
    let dir = base.join("store");
    let catalog = cqa::sql::parse_script(SEED).unwrap();
    // No compaction: keep every frame in the WAL so the report is exact.
    let opts = StoreOptions {
        fsync: FsyncPolicy::Always,
        compact_min_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    let mut db =
        Database::persistent_with(&dir, catalog.instance, catalog.constraints, opts).unwrap();
    for k in 0..OPS {
        assert!(apply_op(&mut db, k).unwrap());
    }
    drop(db);

    // A torn append: 10 garbage bytes that are not a complete frame.
    use std::io::Write;
    let mut wal = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("wal"))
        .unwrap();
    wal.write_all(&[0xAB; 10]).unwrap();
    drop(wal);

    let back = Database::open_with(&dir, opts).unwrap();
    let report = back.recovery_report().expect("opened stores report");
    assert_eq!(
        report.bytes_truncated, 10,
        "the torn tail is measured, not just dropped"
    );
    assert_eq!(report.frames_applied as usize, OPS);
    assert_eq!(report.last_seq as usize, OPS);
    assert_eq!(atoms(&back), atoms(&oracle(OPS)));
    let _ = std::fs::remove_dir_all(&base);
}

/// Satellite: seeded randomized corruption — flip, truncate or smear
/// arbitrary bytes of the WAL, the manifest or a segment file.
/// `Database::open` must never panic and never return state beyond the
/// durable horizon.
#[test]
fn randomized_corruption_sweep_never_panics_never_exceeds_horizon() {
    let base = scratch("fuzz");
    let dir = base.join("store");
    let mut rng = XorShift::new(0xFA17_5EED);
    let mut opened = 0usize;
    let mut rejected = 0usize;

    for trial in 0..48 {
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = cqa::sql::parse_script(SEED).unwrap();
        let mut db =
            Database::persistent_with(&dir, catalog.instance, catalog.constraints, options())
                .unwrap();
        for k in 0..OPS {
            assert!(apply_op(&mut db, k).unwrap());
        }
        db.sync().unwrap();
        drop(db);

        // 1–3 corruptions per trial. Half land on the WAL (often
        // healable by tail truncation); the rest hit the manifest or a
        // live segment (typed rejection — the manifest is the root of
        // trust and pins every segment's length and CRC).
        for _ in 0..1 + rng.below(3) {
            let path = if rng.chance(1, 2) {
                dir.join("wal")
            } else {
                let mut snaps: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n == "manifest" || n.starts_with("seg-"))
                    })
                    .collect();
                snaps.sort();
                snaps[rng.below(snaps.len())].clone()
            };
            let mut bytes = std::fs::read(&path).unwrap();
            if bytes.is_empty() {
                continue;
            }
            match rng.below(3) {
                0 => {
                    let i = rng.below(bytes.len());
                    bytes[i] ^= 1 << rng.below(8);
                }
                1 => {
                    let keep = rng.below(bytes.len() + 1);
                    bytes.truncate(keep);
                }
                _ => {
                    let i = rng.below(bytes.len());
                    let end = (i + 1 + rng.below(16)).min(bytes.len());
                    for b in &mut bytes[i..end] {
                        *b = 0xEE;
                    }
                }
            }
            std::fs::write(&path, &bytes).unwrap();
        }

        match Database::open_with(&dir, options()) {
            Err(e) => {
                assert!(
                    matches!(e, Error::Storage(_)),
                    "trial {trial}: typed error, got {e}"
                );
                rejected += 1;
            }
            Ok(db) => {
                let last = db.recovery_report().unwrap().last_seq as usize;
                assert!(
                    last <= OPS,
                    "trial {trial}: horizon {last} beyond durable {OPS}"
                );
                assert_eq!(
                    atoms(&db),
                    atoms(&oracle(last)),
                    "trial {trial}: recovered state must sit exactly on the horizon"
                );
                opened += 1;
            }
        }
    }
    // The sweep must actually exercise both outcomes.
    assert!(
        opened > 0,
        "no trial recovered — sweep too destructive to mean anything"
    );
    assert!(
        rejected > 0,
        "no trial was rejected — sweep too gentle to mean anything"
    );
    let _ = std::fs::remove_dir_all(&base);
}
