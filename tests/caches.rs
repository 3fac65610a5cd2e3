//! Caller-owned cache bundles. Every facade instance owns its own
//! [`CqaCaches`] bundle, so one tenant's scans and groundings can never be
//! evicted by another tenant's churn, and the `*_governed` entry points
//! run against whatever bundle the caller passes.
//!
//! Pinned here: the root-worklist cache's hit/miss/invalidation contract,
//! the grounding cache's drift trichotomy (hit / incremental reground /
//! rebuild) and its size-aware eviction budget. Any drift — insertions,
//! deletions, or both — must take the incremental path, with rebuild
//! reserved for drifts beyond the escape-hatch fraction.
//!
//! Every counter read here belongs to a bundle the test itself owns, so
//! the tests share one binary and still run in parallel.

use cqa::core::{
    repairs_via_program_governed, repairs_with_config_governed, CqaCaches, GroundingCacheStats,
    ProgramStyle, RepairConfig,
};
use cqa::relational::Instance;
use cqa::{CancelToken, Database};

fn tenant(tag: &str) -> Database {
    // One key conflict (the FK target survives either resolution):
    // 2 repairs, Example-19 shape.
    Database::from_script(&format!(
        "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
         CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
         INSERT INTO r VALUES ('a{tag}', 'b'), ('a{tag}', 'c');
         INSERT INTO s VALUES (NULL, 'a{tag}');",
    ))
    .unwrap()
}

/// Shorthand: the counters this suite actually drives (evictions are
/// pinned separately, against an explicit budget).
fn counts(db: &Database) -> (u64, u64, u64, u64) {
    let s = db.caches().grounding.stats();
    (s.hits, s.regrounds, s.rebuilds, s.misses)
}

/// Worklist counters as a (hits, misses, evictions) triple.
fn wl(db: &Database) -> (u64, u64, u64) {
    let s = db.caches().worklist.stats();
    (s.hits, s.misses, s.evictions)
}

#[test]
fn worklist_cache_hits_repeats_and_invalidates_on_mutation() {
    // Repeated `repairs*` calls over an unchanged instance must skip the
    // O(instance) full violation scan, and any content mutation must
    // invalidate exactly (the cache keys on `Instance::version`, which
    // every mutation reassigns).
    let w = cqa_bench::example19_scaled(30, 2, 1, 71);
    let mut d = w.instance;
    let ics = w.ics;
    let config = RepairConfig::default();
    let caches = CqaCaches::new();
    let repairs = |d: &Instance, ics: &cqa::constraints::IcSet, config| {
        repairs_with_config_governed(d, ics, config, &caches, &CancelToken::never()).unwrap()
    };
    let hm = || {
        let s = caches.worklist.stats();
        (s.hits, s.misses)
    };

    let first = repairs(&d, &ics, config);
    assert_eq!(hm(), (0, 1), "first call scans");

    let second = repairs(&d, &ics, config);
    assert_eq!(hm(), (1, 1), "repeat call hits, without a rescan");
    assert_eq!(second, first);

    // A clone shares the version stamp: still a hit.
    let _ = repairs(&d.clone(), &ics, config);
    assert_eq!(hm(), (2, 1));

    // Mutating between calls invalidates: new conflict, fresh scan, and —
    // decisively — the *result* reflects the mutation.
    d.insert_named("R", [cqa::s("dupX"), cqa::s("a")]).unwrap();
    d.insert_named("R", [cqa::s("dupX"), cqa::s("b")]).unwrap();
    let third = repairs(&d, &ics, config);
    assert_eq!(hm(), (2, 2), "mutation must force a rescan");
    assert_eq!(
        third.len(),
        first.len() * 2,
        "the extra key conflict doubles the repair count"
    );

    // Same instance, different constraint set: the key includes the ICs.
    let fewer = ics.constraints().iter().take(1).cloned().collect();
    let _ = repairs(&d, &fewer, config);
    assert_eq!(hm(), (2, 3), "different ICs must not reuse the scan");
}

#[test]
fn worklist_cache_is_per_tenant() {
    let db = tenant("main");
    let first = db.repairs().unwrap();
    assert_eq!(wl(&db), (0, 1, 0), "first call scans");
    let second = db.repairs().unwrap();
    assert_eq!(second, first);
    assert_eq!(wl(&db), (1, 1, 0), "repeat call hits");

    // Hammer 20 other tenants — more than the 8-entry LRU capacity. One
    // shared bundle would evict `db`'s entry; per-tenant handles must be
    // untouched.
    for i in 0..20 {
        let other = tenant(&format!("t{i}"));
        let _ = other.repairs().unwrap();
        assert_eq!(wl(&other), (0, 1, 0));
    }
    let third = db.repairs().unwrap();
    assert_eq!(third, first);
    assert_eq!(
        wl(&db),
        (2, 1, 0),
        "no cross-tenant eviction: still a hit after 20 other tenants"
    );

    // Clones are views of the same tenant: they share the bundle.
    let fork = db.clone();
    let _ = fork.repairs().unwrap();
    assert_eq!(wl(&db), (3, 1, 0));
}

#[test]
fn worklist_eviction_counter_reports_capacity_pressure() {
    // Every mutation reassigns the version stamp, so each round is a
    // fresh key: ten distinct keys against the 8-entry LRU must evict
    // exactly twice, and the named counter must say so.
    let mut db = tenant("evict");
    for i in 0..10 {
        let _ = db.repairs().unwrap();
        db.insert("r", [cqa::s(&format!("v{i}")), cqa::s("w")])
            .unwrap();
    }
    let s = db.caches().worklist.stats();
    assert_eq!((s.hits, s.misses), (0, 10), "each round is a fresh key");
    assert_eq!(s.evictions, 2, "capacity 8 under 10 distinct keys");
}

#[test]
fn grounding_cache_hits_and_regrounds_incrementally() {
    let mut db = tenant("ground");
    let first = db.repairs_via_program().unwrap();
    assert_eq!(counts(&db), (0, 0, 0, 1), "first call grounds from scratch");
    let second = db.repairs_via_program().unwrap();
    assert_eq!(second, first);
    assert_eq!(
        counts(&db),
        (1, 0, 0, 1),
        "repeat call reuses the grounding"
    );
    // The paired incremental solver rides the same cache entry: the first
    // call solved every component from scratch, the repeat answered them
    // all from the per-partition model cache.
    let solver = db.caches().grounding.solver_stats();
    assert!(solver.partition_misses > 0, "first call solved components");
    assert!(solver.partition_hits > 0, "repeat call reused them");

    // CQA through the program route rides the same cached grounding (the
    // query rules are added to a clone).
    let answers = db.consistent_answers("q(v) :- s(u, v).").unwrap();
    assert_eq!(answers.len(), 1);

    // Insert-only drift: the cache replays the delta onto the live state
    // instead of rebuilding.
    db.insert("s", [cqa::s("extra"), cqa::s("aground")])
        .unwrap();
    let third = db.repairs_via_program().unwrap();
    assert_eq!(
        counts(&db),
        (1, 1, 0, 1),
        "insert-only drift must take the incremental reground path"
    );
    // And the reground result is the real thing: same as the engine.
    assert_eq!(third, db.repairs().unwrap());

    // A fresh tenant over the same script grounds independently.
    let other = tenant("ground");
    let _ = other.repairs_via_program().unwrap();
    assert_eq!(counts(&other), (0, 0, 0, 1));
    assert_eq!(counts(&db).3, 1, "untouched by the twin");
}

#[test]
fn grounding_cache_regrounds_through_deletions() {
    // The DRed end-to-end: deletions (and mixed churn) must ride the
    // incremental path too — PR 4 rebuilt here.
    let mut db = tenant("dred");
    // Pad with clean rows so a 2-atom churn stays under the rebuild
    // escape-hatch fraction.
    for i in 0..8 {
        db.insert("r", [cqa::s(&format!("clean{i}")), cqa::s("y")])
            .unwrap();
    }
    let _ = db.repairs_via_program().unwrap();
    assert_eq!(counts(&db), (0, 0, 0, 1));

    // Delete-only drift.
    assert!(db.delete("r", [cqa::s("adred"), cqa::s("b")]).unwrap());
    let after_delete = db.repairs_via_program().unwrap();
    assert_eq!(
        counts(&db),
        (0, 1, 0, 1),
        "delete-only drift must take the incremental reground path"
    );
    assert_eq!(after_delete, db.repairs().unwrap());

    // Mixed churn: one insert + one delete between calls.
    db.insert("r", [cqa::s("anew"), cqa::s("b")]).unwrap();
    assert!(db.delete("s", [cqa::null(), cqa::s("adred")]).unwrap());
    let after_mixed = db.repairs_via_program().unwrap();
    assert_eq!(
        counts(&db),
        (0, 2, 0, 1),
        "mixed insert/delete drift regrounds incrementally"
    );
    assert_eq!(after_mixed, db.repairs().unwrap());

    // CQA over the churned instance agrees across routes as well.
    let direct = db.repairs().unwrap();
    assert!(!direct.is_empty());
}

#[test]
fn oversized_drift_takes_the_rebuild_escape_hatch() {
    // Replacing (almost) the whole instance costs more to replay than to
    // reground from scratch: the cache must rebuild, and say so.
    let mut db = tenant("hatch");
    let _ = db.repairs_via_program().unwrap();
    assert_eq!(counts(&db), (0, 0, 0, 1));
    // Drop every r row and insert fresh ones: drift ≈ 2× the instance.
    assert!(db.delete("r", [cqa::s("ahatch"), cqa::s("b")]).unwrap());
    assert!(db.delete("r", [cqa::s("ahatch"), cqa::s("c")]).unwrap());
    for i in 0..6 {
        db.insert("r", [cqa::s(&format!("fresh{i}")), cqa::s("y")])
            .unwrap();
    }
    let rebuilt = db.repairs_via_program().unwrap();
    assert_eq!(
        counts(&db),
        (0, 0, 1, 1),
        "drift beyond the escape-hatch fraction rebuilds"
    );
    assert_eq!(rebuilt, db.repairs().unwrap());
}

#[test]
fn batch_mutators_match_singles_and_reground_once() {
    // `insert_many`/`delete_many` must be semantically identical to the
    // equivalent sequence of single-atom calls — same instance, same
    // repairs — while presenting the churn to the grounding cache as ONE
    // drift (one reground) instead of N.
    use cqa::relational::Tuple;
    let mut singles = tenant("batch");
    let mut batched = tenant("batch");

    let rows: Vec<Tuple> = (0..4)
        .map(|k| Tuple::from([cqa::s(&format!("pad{k}")), cqa::s("y")]))
        .collect();

    // Pad both tenants with clean rows so the 4-atom batch drift stays
    // under the rebuild escape-hatch fraction (the incremental path is
    // the point of the pin).
    for k in 0..8 {
        for db in [&mut singles, &mut batched] {
            assert!(db
                .insert("r", [cqa::s(&format!("clean{k}")), cqa::s("z")])
                .unwrap());
        }
    }

    // Prime both caches on the same base state.
    let base_s = singles.repairs_via_program().unwrap();
    let base_b = batched.repairs_via_program().unwrap();
    assert_eq!(base_s, base_b);
    assert_eq!(counts(&singles), (0, 0, 0, 1));
    assert_eq!(counts(&batched), (0, 0, 0, 1));

    // Insert: N single calls vs one batch. Duplicates inside the batch
    // input and re-inserts of existing atoms are both no-ops, so the
    // reported count is the number of *genuinely new* atoms.
    for row in &rows {
        assert!(singles.insert("r", row.clone()).unwrap());
        let _ = singles.repairs_via_program().unwrap(); // a reground per call
    }
    let mut batch_input = rows.clone();
    batch_input.push(rows[0].clone()); // duplicate inside the batch
    batch_input.push(Tuple::from([cqa::s("abatch"), cqa::s("b")])); // already present
    let inserted = batched.insert_many("r", batch_input).unwrap();
    assert_eq!(inserted, rows.len(), "only genuinely-new atoms count");
    let after_b = batched.repairs_via_program().unwrap();

    let after_s = singles.repairs_via_program().unwrap();
    assert_eq!(after_s, after_b, "batch insert == singles insert");
    assert_eq!(
        singles.instance().len(),
        batched.instance().len(),
        "identical instances after the two insert styles"
    );
    // Singles reground once per mutation (plus the final call hits);
    // the batch path regrounds exactly once for the whole fleet.
    assert_eq!(counts(&singles), (1, rows.len() as u64, 0, 1));
    assert_eq!(counts(&batched), (0, 1, 0, 1));

    // Delete: same contract, including absent rows being no-ops.
    let mut doomed: Vec<Tuple> = rows[..2].to_vec();
    doomed.push(Tuple::from([cqa::s("never-there"), cqa::s("y")]));
    let removed = batched.delete_many("r", doomed).unwrap();
    assert_eq!(removed, 2, "absent rows do not count as deletions");
    for row in &rows[..2] {
        assert!(singles.delete("r", row.clone()).unwrap());
    }
    assert_eq!(singles.repairs().unwrap(), batched.repairs().unwrap());
    let _ = batched.repairs_via_program().unwrap();
    assert_eq!(
        counts(&batched),
        (0, 2, 0, 1),
        "the whole delete batch is one more reground"
    );

    // An all-no-op batch leaves the cache (and WAL, pinned elsewhere)
    // untouched: the next program call is a pure hit.
    assert_eq!(
        batched
            .insert_many("r", vec![Tuple::from([cqa::s("pad3"), cqa::s("y")]); 3])
            .unwrap(),
        0
    );
    assert_eq!(batched.delete_many("r", Vec::<Tuple>::new()).unwrap(), 0);
    let _ = batched.repairs_via_program().unwrap();
    assert_eq!(counts(&batched), (1, 2, 0, 1), "no-op batches don't drift");
}

/// The program route's repairs of `db`'s state against the bundle `caches`.
fn program_repairs(db: &Database, style: ProgramStyle, caches: &CqaCaches) -> Vec<Instance> {
    repairs_via_program_governed(
        db.instance(),
        db.constraints(),
        style,
        false,
        caches,
        &CancelToken::never(),
    )
    .unwrap()
}

#[test]
fn grounding_cache_eviction_is_size_aware() {
    // A budget small enough for exactly one Example-19 grounding: a
    // second key (different program style) must evict the first, and the
    // eviction counter must say so.
    let caches = CqaCaches::with_grounding_budget(1);
    let db = tenant("evict");
    let reps = program_repairs(&db, ProgramStyle::Corrected, &caches);
    assert_eq!(reps.len(), 2); // the key conflict's two resolutions
    let s = caches.grounding.stats();
    assert_eq!(
        (s.misses, s.evictions),
        (1, 0),
        "a single oversized entry is never evicted"
    );
    // Same key again: still a hit — the most recent entry survives even
    // over budget.
    let _ = program_repairs(&db, ProgramStyle::Corrected, &caches);
    assert_eq!(caches.grounding.stats().hits, 1);
    // A second key blows the budget: the older entry goes.
    let _ = program_repairs(&db, ProgramStyle::PaperExact, &caches);
    let s = caches.grounding.stats();
    assert_eq!(s.evictions, 1, "size budget evicted the LRU entry");
    // The first key is cold again.
    let _ = program_repairs(&db, ProgramStyle::Corrected, &caches);
    let s = caches.grounding.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 2));

    // A default-budget bundle holds both styles without evicting.
    let roomy = CqaCaches::new();
    for _round in 0..2 {
        for style in [ProgramStyle::Corrected, ProgramStyle::PaperExact] {
            let _ = program_repairs(&db, style, &roomy);
        }
    }
    let s = roomy.grounding.stats();
    assert_eq!(
        s,
        GroundingCacheStats {
            hits: 2,
            regrounds: 0,
            rebuilds: 0,
            misses: 2,
            evictions: 0
        },
        "both keys fit the default budget"
    );
}
