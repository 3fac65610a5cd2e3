//! Integration tests for the cancellation/deadline governor (ISSUE 7).
//!
//! The adversarial instance is `GROUPS` primary-key conflict groups of
//! `ROWS` tuples each: every repair keeps exactly one tuple per group,
//! so there are `ROWS^GROUPS` repairs — far too many to enumerate in
//! any test-sized wall-clock budget. A correct governor turns that
//! non-termination into a prompt, typed [`CoreError::Interrupted`]
//! while leaving the database fully usable afterwards.

use cqa::core::{CoreError, InterruptPhase};
use cqa::{Database, Error};
use std::time::{Duration, Instant};

const GROUPS: usize = 12;
const ROWS: usize = 3;

/// `ROWS^GROUPS` repairs behind one primary-key constraint.
fn adversarial_db() -> Database {
    let mut db = Database::from_script("CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);").unwrap();
    for g in 0..GROUPS {
        db.insert_many(
            "r",
            (0..ROWS).map(|r| [cqa::s(&format!("k{g}")), cqa::s(&format!("v{r}"))]),
        )
        .unwrap();
    }
    db
}

fn assert_interrupted(err: Error, phase: InterruptPhase) {
    match err {
        Error::Core(CoreError::Interrupted { phase: p, .. }) => assert_eq!(p, phase),
        other => panic!("expected Interrupted({phase}), got {other:?}"),
    }
}

/// A 10 ms deadline stops the sequential repair search in well under a
/// second, even though full enumeration would take effectively forever.
#[test]
fn deadline_interrupts_sequential_search_promptly() {
    let db = adversarial_db().with_deadline(Duration::from_millis(10));
    let start = Instant::now();
    let err = db.repairs().unwrap_err();
    let elapsed = start.elapsed();
    assert_interrupted(err, InterruptPhase::RepairSearch);
    assert!(
        elapsed < Duration::from_secs(1),
        "governor took {elapsed:?} to honour a 10ms deadline"
    );
}

/// CQA rides on the repair search, so the deadline reaches it too.
#[test]
fn deadline_interrupts_cqa() {
    let db = adversarial_db().with_deadline(Duration::from_millis(10));
    let start = Instant::now();
    let err = db.consistent_answers("q(x) :- r(x, y).").unwrap_err();
    assert_interrupted(err, InterruptPhase::RepairSearch);
    assert!(start.elapsed() < Duration::from_secs(1));
}

/// The Π(D, IC) program route is governed across all of its stages
/// (grounding, stable-model enumeration, extraction); with 3^12 stable
/// models the trip lands in whichever stage the deadline catches.
#[test]
fn deadline_interrupts_program_route() {
    let db = adversarial_db().with_deadline(Duration::from_millis(10));
    let start = Instant::now();
    let err = db.repairs_via_program().unwrap_err();
    let elapsed = start.elapsed();
    match err {
        Error::Core(CoreError::Interrupted { .. }) => {}
        other => panic!("expected Interrupted, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(1),
        "program-route governor took {elapsed:?}"
    );
}

/// Another thread can cancel through [`Database::cancel_handle`] while a
/// search is in flight.
#[test]
fn manual_cancel_from_another_thread() {
    let db = adversarial_db();
    let handle = db.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
    });
    let start = Instant::now();
    let err = db.repairs().unwrap_err();
    canceller.join().unwrap();
    assert_interrupted(err, InterruptPhase::RepairSearch);
    assert!(start.elapsed() < Duration::from_secs(2));
}

/// A trip is sticky until [`Database::reset_cancel`]; afterwards the
/// same database answers normally — the caches survived the interrupt.
#[test]
fn tripped_handle_is_sticky_until_reset() {
    let mut db = Database::from_script(
        "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
         INSERT INTO r VALUES ('a', 'b'), ('a', 'c');",
    )
    .unwrap();
    db.cancel_handle().cancel();
    let err = db.repairs().unwrap_err();
    assert_interrupted(err, InterruptPhase::RepairSearch);
    db.reset_cancel();
    assert_eq!(db.repairs().unwrap().len(), 2);
    assert_eq!(db.repairs_via_program().unwrap().len(), 2);
}

/// Clones share the cancel root: tripping the original's handle stops a
/// clone's in-flight search too.
#[test]
fn clones_share_the_cancel_root() {
    let db = adversarial_db();
    let clone = db.clone();
    let handle = db.cancel_handle();
    let worker = std::thread::spawn(move || clone.repairs());
    std::thread::sleep(Duration::from_millis(20));
    handle.cancel();
    let err = worker.join().unwrap().unwrap_err();
    assert_interrupted(err, InterruptPhase::RepairSearch);
}

/// A generous deadline changes nothing: governed calls return exactly
/// the ungoverned results (delegation is behaviour-preserving).
#[test]
fn generous_deadline_is_transparent() {
    let db = Database::from_script(
        "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
         CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
         INSERT INTO r VALUES ('a', 'b'), ('a', 'c');
         INSERT INTO s VALUES ('e', 'f'), (NULL, 'a');",
    )
    .unwrap();
    let baseline_repairs = db.repairs().unwrap();
    let baseline_answers = db.consistent_answers("q(v) :- s(u, v).").unwrap();
    let governed = db.clone().with_deadline(Duration::from_secs(120));
    assert_eq!(governed.repairs().unwrap(), baseline_repairs);
    assert_eq!(governed.repairs_via_program().unwrap(), baseline_repairs);
    assert_eq!(
        governed.consistent_answers("q(v) :- s(u, v).").unwrap(),
        baseline_answers
    );
    assert!(governed
        .consistent_answer_boolean("b() :- s(u, 'a').")
        .unwrap());
}

/// An interrupt reports how many sound partial results existed; for the
/// repair search that is the candidate count, which stays below the full
/// repair count when the trip lands mid-search.
#[test]
fn interrupt_reports_partial_progress() {
    let db = adversarial_db().with_deadline(Duration::from_millis(50));
    match db.repairs().unwrap_err() {
        Error::Core(CoreError::Interrupted { phase, partial }) => {
            assert_eq!(phase, InterruptPhase::RepairSearch);
            assert!(
                partial < ROWS.pow(GROUPS as u32),
                "partial={partial} should undercount the 3^12 repairs"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}
