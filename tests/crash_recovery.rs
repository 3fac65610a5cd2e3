//! Crash-recovery harness: SIGKILL a churning writer process at
//! randomized points and prove the reopened database is byte-identical
//! to a never-crashed oracle that applied the same durable prefix.
//!
//! Mechanics: the harness re-invokes its own test binary
//! (`current_exe()`) filtered to the [`crash_writer_child`] test, which
//! opens the store and applies a deterministic op sequence, dropping an
//! ack marker file after each op returns (i.e. after its WAL frame is
//! fsynced — `FsyncPolicy::Always`). The parent waits for the ack at a
//! randomized kill point, then SIGKILLs the child — no atexit handlers,
//! no flush, the honest crash. Because the facade filters no-ops before
//! the WAL, sequence numbers are 1:1 with effective ops, so the
//! recovered `RecoveryReport::last_seq` *is* the length of the durable
//! prefix: the oracle replays exactly that many ops in memory and the
//! two states must agree atom-for-atom, repair-for-repair.
//!
//! The suite is expensive (25 process spawns) and so is env-guarded:
//! it runs only when `CQA_CRASH_TESTS` is set (CI sets it; see
//! `.github/workflows/ci.yml`). Locally:
//!
//! ```text
//! CQA_CRASH_TESTS=1 cargo test --release --test crash_recovery -- --nocapture
//! ```

use cqa::relational::testing::XorShift;
use cqa::storage::{FsyncPolicy, StoreOptions};
use cqa::Database;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Base script: one key conflict (2 repairs), an FK with a null, and an
/// anchor row the churn's FK targets.
const SCRIPT: &str = "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
     CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
     INSERT INTO r VALUES ('a', 'b'), ('a', 'c'), ('anchor', 'z');
     INSERT INTO s VALUES (NULL, 'a');";

/// Ops per child run. Every op is *effective* (insert of a new atom,
/// delete of a present one, a fresh constraint) so op index k ↔ WAL
/// sequence k+1.
const OPS: usize = 48;

/// Ops that append a *constraint frame* instead of a data delta — kill
/// points land before, on, and after these indices across rounds, so
/// recovery through constraint frames is exercised under real SIGKILL.
/// Both indices are ≡ 1 (mod 3) slots (s-inserts nothing ever deletes),
/// so hijacking them leaves the rest of the op chain intact.
const CONSTRAINT_OPS: [usize; 2] = [7, 25];

/// Apply op `k` of the deterministic churn to `db`. Panics if the op
/// was a no-op — the 1:1 seq↔op mapping is load-bearing.
fn apply_op(db: &mut Database, k: usize) {
    if CONSTRAINT_OPS.contains(&k) {
        // Satisfied-by-construction NNCs: each appends exactly one WAL
        // frame (keeping the op↔seq mapping) without changing the
        // repair space, so oracle comparisons stay cheap.
        let (name, text) = if k == CONSTRAINT_OPS[0] {
            ("nn_r_x", "not null r(x)")
        } else {
            ("nn_s_v", "not null s(v)")
        };
        db.add_constraint(name, text).expect("constraint op");
        return;
    }
    let effective = match k % 3 {
        0 => db
            .insert("r", [cqa::s(&format!("w{k}")), cqa::s("y")])
            .unwrap(),
        1 => db
            .insert("s", [cqa::s(&format!("u{k}")), cqa::s("anchor")])
            .unwrap(),
        // k ≥ 2 here, and k-2 ≡ 0 (mod 3): that row was inserted at op
        // k-2 and never touched since.
        _ => db
            .delete("r", [cqa::s(&format!("w{}", k - 2)), cqa::s("y")])
            .unwrap(),
    };
    assert!(effective, "op {k} must be effective");
}

/// The never-crashed oracle: base script + the first `n` churn ops,
/// purely in memory.
fn oracle(n: usize) -> Database {
    let mut db = Database::from_script(SCRIPT).unwrap();
    for k in 0..n {
        apply_op(&mut db, k);
    }
    db
}

fn aggressive_options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        compact_num: 1,
        compact_den: 2,
        compact_min_wal_bytes: 0,
    }
}

fn durable_options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    }
}

/// Child mode: re-invoked by the harness with `CQA_CRASH_CHILD_DIR`
/// set. Opens the store, churns, drops an ack marker per completed op.
/// As a test in its own right (env unset) it is a no-op pass.
#[test]
fn crash_writer_child() {
    let Ok(dir) = std::env::var("CQA_CRASH_CHILD_DIR") else {
        return;
    };
    let ack_dir = PathBuf::from(std::env::var("CQA_CRASH_ACK_DIR").expect("ack dir"));
    let options = if std::env::var("CQA_CRASH_COMPACT").is_ok() {
        aggressive_options()
    } else {
        durable_options()
    };
    let mut db = Database::open_with(&dir, options).expect("child opens store");
    for k in 0..OPS {
        apply_op(&mut db, k);
        // The op has returned: its frame is on disk and fsynced. Only
        // now may the ack appear — the marker's existence is the claim
        // "op k is durable", which the parent holds us to after SIGKILL.
        std::fs::File::create(ack_dir.join(format!("ack.{k}"))).expect("ack marker");
    }
}

fn wait_for_ack(ack_dir: &Path, k: usize, child: &mut std::process::Child) -> bool {
    let marker = ack_dir.join(format!("ack.{k}"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if marker.exists() {
            return true;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Child finished all ops before the kill point was reached —
            // only legal when every marker is already down.
            assert!(status.success(), "child failed: {status:?}");
            return marker.exists();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for ack.{k}");
}

#[test]
fn crash_recovery_survives_sigkill_mid_churn() {
    if std::env::var("CQA_CRASH_TESTS").is_err() {
        eprintln!("crash harness skipped: set CQA_CRASH_TESTS=1 to run");
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let root = std::env::temp_dir().join(format!("cqa-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut rng = XorShift::new(0xC4A5_4B1D);
    for round in 0..25 {
        let dir = root.join(format!("store{round}"));
        let ack_dir = root.join(format!("ack{round}"));
        std::fs::create_dir_all(&ack_dir).unwrap();

        // Every third round churns with an aggressive compaction
        // fraction, so kills land inside segment-rewrite/manifest-
        // rename windows too (the incremental compaction protocol).
        let compact = round % 3 == 0;
        let options = if compact {
            aggressive_options()
        } else {
            durable_options()
        };
        let catalog = cqa::sql::parse_script(SCRIPT).unwrap();
        drop(
            Database::persistent_with(&dir, catalog.instance, catalog.constraints, options)
                .unwrap(),
        );

        let kill_after = rng.below(OPS);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("crash_writer_child")
            .arg("--exact")
            .arg("--nocapture")
            .env("CQA_CRASH_CHILD_DIR", &dir)
            .env("CQA_CRASH_ACK_DIR", &ack_dir)
            .env_remove("CQA_CRASH_TESTS");
        if compact {
            cmd.env("CQA_CRASH_COMPACT", "1");
        }
        let mut child = cmd
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child");

        wait_for_ack(&ack_dir, kill_after, &mut child);
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");

        // Recover. The durable horizon must cover every acked op; the
        // recovered state must equal the oracle at exactly that horizon.
        let back =
            Database::open(&dir).unwrap_or_else(|e| panic!("round {round}: recovery failed: {e}"));
        let report = back.recovery_report().unwrap().clone();
        let durable = report.last_seq as usize;
        assert!(
            durable > kill_after,
            "round {round}: acked op {kill_after} lost (durable horizon {durable})"
        );
        assert!(
            durable <= OPS,
            "round {round}: horizon {durable} beyond the op stream"
        );

        let want = oracle(durable);
        let got_atoms: Vec<_> = back.instance().atoms().collect();
        let want_atoms: Vec<_> = want.instance().atoms().collect();
        assert_eq!(
            got_atoms, want_atoms,
            "round {round} (kill@{kill_after}, compact={compact}): \
             recovered instance diverges from the oracle at horizon {durable}"
        );
        assert_eq!(
            back.repairs().unwrap(),
            want.repairs().unwrap(),
            "round {round}: repair spaces diverge"
        );
        assert_eq!(
            back.consistent_answers("q(v) :- s(u, v).").unwrap(),
            want.consistent_answers("q(v) :- s(u, v).").unwrap(),
            "round {round}: consistent answers diverge"
        );

        // The reopened handle keeps working: finish the op stream and
        // compare against the full-run oracle.
        let mut back = back;
        for k in durable..OPS {
            apply_op(&mut back, k);
        }
        let full = oracle(OPS);
        let got: Vec<_> = back.instance().atoms().collect();
        let want: Vec<_> = full.instance().atoms().collect();
        assert_eq!(got, want, "round {round}: post-recovery churn diverges");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ack_dir);
    }
    let _ = std::fs::remove_dir_all(&root);
}
