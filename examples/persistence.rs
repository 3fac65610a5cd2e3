//! Durability walkthrough: create a persistent database, churn it,
//! "crash" (drop without ceremony), and reopen — the recovered handle is
//! byte-identical and reports what recovery found. Reopening restores
//! the data only: the caches start empty, the first program-route call
//! grounds, and churn after it regrounds incrementally.
//!
//! Run with `cargo run --example persistence`.

use cqa::storage::{FsyncPolicy, StoreOptions};
use cqa::Database;

fn main() -> Result<(), cqa::Error> {
    let dir = std::env::temp_dir().join(format!("cqa-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A store is a directory: `snapshot` (the full instance + constraints
    // at some write horizon) and `wal` (checksummed deltas since). Seed
    // it from a SQL script — the usual inconsistent register.
    let catalog = cqa::sql::parse_script(
        "
        CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
        CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
        INSERT INTO r VALUES ('a', 'b'), ('a', 'c');   -- key conflict
        INSERT INTO s VALUES (NULL, 'a');
        ",
    )?;
    let mut db = Database::persistent_with(
        &dir,
        catalog.instance,
        catalog.constraints,
        StoreOptions {
            // Every acknowledged write is fsynced before `insert`
            // returns; `EveryN(n)` and `Never` trade that for latency.
            fsync: FsyncPolicy::Always,
            ..StoreOptions::default()
        },
    )?;

    // Ordinary mutation: each effective call appends one WAL frame
    // *before* the in-memory change. Batches append one frame total.
    for k in 0..10 {
        db.insert("r", [cqa::s(&format!("row{k}")), cqa::s("clean")])?;
    }
    db.insert_many("s", (0..5).map(|k| [cqa::s(&format!("u{k}")), cqa::s("a")]))?;
    db.delete("r", [cqa::s("row0"), cqa::s("clean")])?;

    let repairs_before = db.repairs()?.len();
    let answers_before = db.consistent_answers("q(v) :- s(u, v).")?;
    println!(
        "before crash: {repairs_before} repairs, {} consistent answers",
        answers_before.len()
    );

    // "Crash": no close(), no flush — drop the handle mid-flight. Every
    // acknowledged write is already on disk.
    drop(db);

    // Reopen. Recovery loads the snapshot and replays surviving WAL
    // frames (truncating any torn tail). It grounds nothing: the caches
    // start empty, as for a database built in memory.
    let mut db = Database::open(&dir)?;
    let report = db.recovery_report().expect("opened stores report");
    println!(
        "recovered: snapshot {} atoms @ seq {}, {} frames replayed, {} torn bytes dropped, horizon seq {}",
        report.snapshot_atoms,
        report.snapshot_last_seq,
        report.frames_applied,
        report.bytes_truncated,
        report.last_seq,
    );

    assert_eq!(db.repairs()?.len(), repairs_before);
    assert_eq!(db.consistent_answers("q(v) :- s(u, v).")?, answers_before);
    println!("after recovery: identical repairs and consistent answers");

    // The first program-route query grounds the recovered state (one
    // miss); churn after it regrounds incrementally instead of
    // rebuilding (the stats show it).
    let _ = db.repairs_via_program()?;
    db.insert("r", [cqa::s("post-crash"), cqa::s("clean")])?;
    let _ = db.repairs_via_program()?;
    let stats = db.caches().grounding.stats();
    println!(
        "grounding cache after reopen + churn: {} misses, {} hits, {} regrounds, {} rebuilds",
        stats.misses, stats.hits, stats.regrounds, stats.rebuilds,
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
