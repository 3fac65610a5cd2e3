//! One benchmark run of one workload: timed set-up, then a closed loop of
//! operations (one client, no think time), either untraced through the
//! `Database` facade or traced through the layer calls the facade makes.

use crate::quiet::{self, Probe, Reading};
use crate::stats::{median, percentile, weighted_percentile, Metric, Report};
use crate::trace::Recorder;
use crate::workloads::{self, execute, Class, Model, Op, Outcome, Prepared, Source};
use cqa::core::query::{AnswerSemantics, QueryNullSemantics};
use cqa::core::{CqaCaches, PlanRoute, ProgramStyle, RepairConfig, SolveOptions};
use cqa::relational::testing::XorShift;
use cqa::relational::Tuple;
use cqa::Database;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the first block boundary after this much loop time (oracle
    /// checks excluded).
    Seconds(f64),
    /// After exactly this many operations.
    Ops(u64),
}

/// One measured operation.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Position of the operation in its block.
    pos: usize,
    class: Class,
    /// Latency of the facade call.
    ms: f64,
    /// Loop wall time of the operation: drawing, running and recording
    /// it, without its check.
    wall_s: f64,
    /// The last host probe before the operation; the next one closes it.
    probe: usize,
}

/// A pass as it would have run on a quiet host: latencies weighted by
/// how many operations of the pass each stands for.
#[derive(Debug, Default)]
struct Quiet {
    ops: u64,
    ops_per_s: f64,
    read_ms: Vec<(f64, f64)>,
    repairs_ms: Vec<(f64, f64)>,
    write_ms: Vec<(f64, f64)>,
}

/// What one pass over the operation stream measured.
#[derive(Debug, Default)]
struct Pass {
    /// Host probe readings, in the order they were taken.
    probes: Vec<Reading>,
    samples: Vec<Sample>,
    ops: u64,
    writes: u64,
    failed: u64,
    /// Peak resident memory of the measured calls, without the checks.
    peak_rss_mb: f64,
    /// Deltas of the public stats structs across the pass.
    counts: BTreeMap<&'static str, i64>,
    /// WAL growth of each write that did not compact (traced pass only).
    wal_bytes_per_write: Vec<f64>,
    /// What the layers returned (traced pass only).
    sizes: Sizes,
}

/// Result sizes per layer call in the traced pass. They depend only on the
/// operation script, so they repeat exactly.
#[derive(Debug, Default)]
struct Sizes {
    fast_answers: Vec<f64>,
    search_repairs: Vec<f64>,
    program_repairs: Vec<f64>,
}

impl Pass {
    /// The quiet operations: those between two probes on one core no
    /// slower than `threshold`, and not the first on a core the run has
    /// just moved to. Each position in the block keeps its share of the
    /// pass: a quiet operation stands for all operations of its position
    /// over the quiet ones. The probes turn away long operations more
    /// often than short ones, and the weights undo that. A position with
    /// no quiet operation keeps all of its operations.
    fn quiet(&self, threshold: f64) -> Quiet {
        let is_quiet = |s: &Sample| {
            let (open, close) = (self.probes[s.probe], self.probes[s.probe + 1]);
            !open.moved && open.next_us <= threshold && close.here_us <= threshold
        };
        let positions = self.samples.iter().map(|s| s.pos + 1).max().unwrap_or(0);
        let (mut all, mut kept) = (vec![0usize; positions], vec![0usize; positions]);
        for s in &self.samples {
            all[s.pos] += 1;
            kept[s.pos] += usize::from(is_quiet(s));
        }
        let mut out = Quiet::default();
        let mut wall_s = 0.0;
        for s in &self.samples {
            let weight = match kept[s.pos] {
                0 => 1.0,
                n if is_quiet(s) => all[s.pos] as f64 / n as f64,
                _ => continue,
            };
            wall_s += weight * s.wall_s;
            out.ops += 1;
            let latencies = match s.class {
                Class::Read => &mut out.read_ms,
                Class::Repairs => &mut out.repairs_ms,
                Class::Write => &mut out.write_ms,
            };
            latencies.push((s.ms, weight));
        }
        out.ops_per_s = self.samples.len() as f64 / wall_s;
        out
    }
}

/// Flattened counters of every public stats struct the facade exposes.
fn counters(db: &Database) -> BTreeMap<&'static str, i64> {
    let planner = db.planner_stats();
    let worklist = db.caches().worklist.stats();
    let grounding = db.caches().grounding.stats();
    let solver = db.caches().grounding.solver_stats();
    let mut out = BTreeMap::from([
        ("planner.fo_rewrite", planner.fo_rewrite),
        ("planner.chase", planner.chase),
        ("planner.fallbacks", planner.fallbacks),
        ("worklist.hits", worklist.hits),
        ("worklist.misses", worklist.misses),
        ("grounding.hits", grounding.hits),
        ("grounding.regrounds", grounding.regrounds),
        ("grounding.rebuilds", grounding.rebuilds),
        ("grounding.misses", grounding.misses),
        ("solver.partition_hits", solver.partition_hits),
        ("solver.partition_misses", solver.partition_misses),
        ("solver.learned_reused", solver.learned_reused),
    ]);
    if let Some(store) = db.storage_stats() {
        out.extend([
            ("store.appends", store.appends),
            ("store.fsyncs", store.fsyncs),
            ("store.compactions", store.compactions),
            ("store.segments_written", store.segments_written),
            ("store.segments_reused", store.segments_reused),
        ]);
    }
    out.into_iter().map(|(k, v)| (k, v as i64)).collect()
}

fn delta(
    after: &BTreeMap<&'static str, i64>,
    before: &BTreeMap<&'static str, i64>,
) -> BTreeMap<&'static str, i64> {
    after.iter().map(|(k, v)| (*k, v - before[k])).collect()
}

/// The operation stream of a pass: the same seed always yields the same
/// operations in the same order.
fn op_rng(seed: u64) -> XorShift {
    XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0b5e_55ed)
}

fn run_pass(
    db: &mut Database,
    prepared: &Prepared,
    seed: u64,
    stop: Stop,
    probe: &Probe,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let mut model: Model = prepared.model.clone();
    let mut rng = op_rng(seed);
    let mut pass = Pass::default();
    let before = counters(db);
    let (mut loop_s, mut since_probe) = (0.0, f64::INFINITY);
    let (mut blocks, mut pos) = (0usize, 0usize);
    loop {
        let done = match stop {
            Stop::Seconds(s) => loop_s >= s && model.at_block_start(),
            Stop::Ops(n) => pass.ops >= n,
        };
        if done {
            break;
        }
        if since_probe >= quiet::GAP_S {
            pass.probes.push(probe.run());
            since_probe = 0.0;
        }
        if model.at_block_start() {
            blocks += 1;
            pos = 0;
        } else {
            pos += 1;
        }
        let started = Instant::now();
        let op = model.next_op(&mut rng);
        let store_before = (op.class() == Class::Write && rec.is_some())
            .then(|| db.storage_stats())
            .flatten();
        let t = Instant::now();
        let outcome = match rec.as_deref_mut() {
            Some(rec) => execute_traced(db, &op, rec, &mut pass.sizes),
            None => execute(db, &op).map_err(|e| e.to_string()),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if op.class() == Class::Write {
            pass.writes += 1;
        }
        if let (Some(b), Some(a)) = (store_before, db.storage_stats()) {
            if a.compactions == b.compactions {
                pass.wal_bytes_per_write
                    .push(a.wal_bytes as f64 - b.wal_bytes as f64);
            }
        }
        let spent = started.elapsed().as_secs_f64();
        pass.samples.push(Sample {
            pos,
            class: op.class(),
            ms,
            wall_s: spent,
            probe: pass.probes.len() - 1,
        });
        loop_s += spent;
        since_probe += spent;
        let verdict = match &outcome {
            Err(e) => Err(e.clone()),
            Ok(out) if (blocks - 1).is_multiple_of(workloads::CHECK_EVERY) => {
                // The checker's memory is not the program's: keep the peak
                // so far and restart the high-water mark after the check,
                // whose copy and caches are gone by then.
                pass.peak_rss_mb = pass.peak_rss_mb.max(peak_rss_mb());
                let verdict = model.check(db, &op, out, &CqaCaches::new());
                reset_peak_rss();
                verdict
            }
            Ok(_) => Ok(()),
        };
        if let Err(e) = verdict {
            pass.failed += 1;
            eprintln!("perfbench: {} op {} failed: {e}", prepared.name, pass.ops);
        }
        pass.ops += 1;
    }
    pass.probes.push(probe.run());
    pass.peak_rss_mb = pass.peak_rss_mb.max(peak_rss_mb());
    pass.counts = delta(&counters(db), &before);
    pass
}

/// One operation through the public functions the facade calls, each
/// inside its own span under the operation's root span.
fn execute_traced(
    db: &mut Database,
    op: &Op,
    rec: &mut Recorder,
    sizes: &mut Sizes,
) -> Result<Outcome, String> {
    let config = RepairConfig::default();
    let token = db.cancel_handle();
    match op {
        Op::Read { query, .. } => rec.span("read", |rec| {
            let q = rec
                .span("sql.parse", |_| cqa::sql::parse_query(db.schema(), query))
                .map_err(|e| e.to_string())?;
            let plan = rec.span("plan", |_| {
                cqa::core::plan_query(db.constraints(), &q, &config)
            });
            if plan.route != PlanRoute::Enumerate {
                let answers = rec
                    .span("fast_path", |_| {
                        cqa::core::consistent_answers_governed(
                            db.instance(),
                            db.constraints(),
                            &q,
                            config,
                            AnswerSemantics::IncludeNullAnswers,
                            QueryNullSemantics::NullAsValue,
                            db.caches(),
                            &token,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                sizes.fast_answers.push(answers.len() as f64);
                return Ok(Outcome::Answers(answers.tuples));
            }
            let repairs = rec
                .span("engine.search", |_| {
                    cqa::core::repairs_with_config_governed(
                        db.instance(),
                        db.constraints(),
                        config,
                        db.caches(),
                        &token,
                    )
                })
                .map_err(|e| e.to_string())?;
            sizes.search_repairs.push(repairs.len() as f64);
            // The enumeration route's loop: evaluate per repair, intersect,
            // stop early once the intersection is empty.
            let mut acc: Option<BTreeSet<Tuple>> = None;
            for repair in &repairs {
                if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
                let answers = rec.span("query.eval", |_| {
                    q.eval_with(repair, QueryNullSemantics::NullAsValue)
                });
                acc = Some(rec.span("query.intersect", |_| match acc.take() {
                    None => answers,
                    Some(mut seen) => {
                        seen.retain(|t| answers.contains(t));
                        seen
                    }
                }));
            }
            Ok(Outcome::Answers(acc.unwrap_or_default()))
        }),
        Op::Repairs => rec.span("repairs", |rec| {
            let repairs = rec
                .span("engine.search", |_| {
                    cqa::core::repairs_with_config_governed(
                        db.instance(),
                        db.constraints(),
                        config,
                        db.caches(),
                        &token,
                    )
                })
                .map_err(|e| e.to_string())?;
            sizes.search_repairs.push(repairs.len() as f64);
            Ok(Outcome::Repairs(repairs))
        }),
        Op::ProgramRepairs => rec.span("repairs", |rec| {
            let style = ProgramStyle::default();
            rec.span("ground.warm", |_| {
                cqa::core::warm_caches_in(db.instance(), db.constraints(), style, db.caches())
            })
            .map_err(|e| e.to_string())?;
            let repairs = rec
                .span("solve", |_| {
                    cqa::core::repairs_via_program_solved(
                        db.instance(),
                        db.constraints(),
                        style,
                        false,
                        SolveOptions::default(),
                        db.caches(),
                        &token,
                    )
                })
                .map_err(|e| e.to_string())?;
            sizes.program_repairs.push(repairs.len() as f64);
            Ok(Outcome::Repairs(repairs))
        }),
        Op::Insert(..) | Op::Delete(..) => rec
            .span("write", |_| execute(db, op))
            .map_err(|e| e.to_string()),
    }
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak resident set from the current one, so that memory the
/// harness used before (preparing, staging, checking) is not counted. Best
/// effort: a kernel without `clear_refs` keeps the whole-process peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One timed set-up and the host probes on either side of it.
#[derive(Debug, Clone, Copy)]
struct Setup {
    s: f64,
    probes_us: [f64; 2],
}

impl Setup {
    fn quiet(&self, threshold: f64) -> bool {
        self.probes_us.iter().all(|&p| p <= threshold)
    }
}

/// Open the database once from a fresh copy of the template, in `slot`.
/// The peak resident set restarts before the set-up, so it covers the
/// set-up and what follows.
fn timed_setup(
    prepared: &Prepared,
    work: &Path,
    slot: &str,
    probe: &Probe,
) -> Result<(Database, Source, Setup), String> {
    let source = prepared
        .stage(work, slot)
        .map_err(|e| format!("staging: {e}"))?;
    reset_peak_rss();
    let before = probe.run().next_us;
    let t = Instant::now();
    let db = source.open().map_err(|e| format!("set-up: {e}"))?;
    let s = t.elapsed().as_secs_f64();
    let setup = Setup {
        s,
        probes_us: [before, probe.run().here_us],
    };
    Ok((db, source, setup))
}

/// Quiet set-ups wanted per run.
const QUIET_SETUPS: usize = 5;

/// Set up again until `QUIET_SETUPS` of `setups` are quiet under
/// `threshold` or there are `prepared.setup_reps` of them. Only one
/// database is ever resident.
fn more_setups(
    prepared: &Prepared,
    work: &Path,
    probe: &Probe,
    threshold: f64,
    setups: &mut Vec<Setup>,
) -> Result<(), String> {
    while setups.iter().filter(|s| s.quiet(threshold)).count() < QUIET_SETUPS
        && setups.len() < prepared.setup_reps
    {
        let slot = format!("setup-{}", setups.len());
        let (db, source, setup) = timed_setup(prepared, work, &slot, probe)?;
        drop(db);
        remove_store(&source);
        setups.push(setup);
    }
    Ok(())
}

/// Median of the quiet set-ups, or of all of them if none is quiet.
fn quiet_setup_s(setups: &[Setup], threshold: f64) -> f64 {
    let quiet: Vec<f64> = setups
        .iter()
        .filter(|s| s.quiet(threshold))
        .map(|s| s.s)
        .collect();
    let all: Vec<f64> = setups.iter().map(|s| s.s).collect();
    median(if quiet.is_empty() { &all } else { &quiet }).expect("set-up ran")
}

fn remove_store(source: &Source) {
    if let Source::Store(dir) = source {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Human-readable summary line (before the JSON result line).
fn show(name: &str, value: Option<f64>, unit: &str, note: &str) {
    match value {
        Some(v) => println!("  {name:<28} {v:>22} {unit:<6} {note}"),
        None => println!("  {name:<28} {:>22} {unit:<6} {note}", "n/a"),
    }
}

/// The untraced run: every end-to-end metric.
pub fn measure(
    prepared: &Prepared,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let probe = Probe::new();
    let (mut db, source, first) = timed_setup(prepared, work, "run", &probe)?;
    let pass = run_pass(
        &mut db,
        prepared,
        seed,
        Stop::Seconds(seconds),
        &probe,
        None,
    );
    let rows = db.instance().len() as f64;
    let disk = match &source {
        Source::Store(dir) => {
            db.sync().map_err(|e| e.to_string())?;
            Some(workloads::dir_bytes(dir).map_err(|e| e.to_string())? as f64 / rows)
        }
        Source::Script(_) => None,
    };
    drop(db);
    remove_store(&source);

    // One threshold for the whole run, from the probes of the first set-up
    // and the loop; the further set-ups come after the loop, so that the
    // threshold is known while they run.
    let probes: Vec<f64> = first
        .probes_us
        .into_iter()
        .chain(pass.probes.iter().map(|r| r.here_us))
        .collect();
    let threshold = quiet::threshold(&probes);
    let mut setups = vec![first];
    more_setups(prepared, work, &probe, threshold, &mut setups)?;
    let q = pass.quiet(threshold);
    let setup_times: Vec<f64> = setups.iter().map(|s| s.s).collect();
    let metrics = vec![
        Metric::new("setup_s", quiet_setup_s(&setups, threshold), "s"),
        Metric::new("ops_per_s", q.ops_per_s, "1/s"),
        Metric::new(
            "read_p50_ms",
            weighted_percentile(&q.read_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "read_p90_ms",
            weighted_percentile(&q.read_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "write_p50_ms",
            weighted_percentile(&q.write_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "write_p90_ms",
            weighted_percentile(&q.write_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("peak_rss_mb", pass.peak_rss_mb, "MiB"),
    ];
    let wall_s: f64 = pass.samples.iter().map(|s| s.wall_s).sum();
    println!(
        "perfbench {} seed {seed}: {} ops in {:.2} s, {} of them quiet ({} reads, {} repair listings, {} writes); {} set-ups of {:.4}–{:.4} s; quiet probes at most {:.1} us",
        prepared.name,
        pass.ops,
        wall_s,
        q.ops,
        q.read_ms.len(),
        q.repairs_ms.len(),
        q.write_ms.len(),
        setups.len(),
        percentile(&setup_times, 0.0).expect("set-up ran"),
        percentile(&setup_times, 100.0).expect("set-up ran"),
        threshold,
    );
    for m in &metrics {
        show(&m.name, Some(m.value), &m.unit, "");
    }
    let absent = "(not in this workload's mix)";
    let repairs_note = if q.repairs_ms.is_empty() { absent } else { "" };
    show(
        "repairs_p50_ms",
        weighted_percentile(&q.repairs_ms, 50.0),
        "ms",
        repairs_note,
    );
    show(
        "repairs_p90_ms",
        weighted_percentile(&q.repairs_ms, 90.0),
        "ms",
        repairs_note,
    );
    show(
        "disk_bytes_per_row",
        disk,
        "B",
        if disk.is_none() { "(in memory)" } else { "" },
    );
    show(
        "failed_frac",
        Some(pass.failed as f64 / pass.ops as f64),
        "ratio",
        &format!("({} of {} operations)", pass.failed, pass.ops),
    );
    Ok(Report {
        correct: pass.failed == 0,
        attempted: pass.ops,
        failed: pass.failed,
        metrics,
    })
}

/// Set-up split into its two layers, for stores: `storage.recover_s` is
/// `DurableStore::open` alone, and `warm.warm_s` is the rest of
/// `Database::open` (the cache warm), timed on the same staged copy.
/// `(recover_s, warm_s)` medians, or zeros for a script source.
fn setup_split(prepared: &Prepared, work: &Path) -> Result<(f64, f64), String> {
    let (mut recover, mut warm) = (Vec::new(), Vec::new());
    for rep in 0..QUIET_SETUPS {
        let source = prepared
            .stage(work, &format!("split-{rep}"))
            .map_err(|e| format!("staging: {e}"))?;
        let Source::Store(dir) = &source else {
            return Ok((0.0, 0.0));
        };
        let t = Instant::now();
        let store = cqa::storage::DurableStore::open(dir, cqa::storage::StoreOptions::default())
            .map_err(|e| e.to_string())?;
        let recover_s = t.elapsed().as_secs_f64();
        drop(store);
        let t = Instant::now();
        let db = source.open().map_err(|e| format!("set-up: {e}"))?;
        let setup_s = t.elapsed().as_secs_f64();
        drop(db);
        remove_store(&source);
        recover.push(recover_s);
        warm.push((setup_s - recover_s).max(0.0));
    }
    Ok((
        median(&recover).unwrap_or(0.0),
        median(&warm).unwrap_or(0.0),
    ))
}

/// Counters that must repeat exactly between two passes over the same
/// operation script.
const EXACT: &[&str] = &[
    "planner.fo_rewrite",
    "planner.chase",
    "planner.fallbacks",
    "worklist.hits",
    "worklist.misses",
    "grounding.hits",
    "grounding.regrounds",
    "grounding.rebuilds",
    "grounding.misses",
    "solver.partition_hits",
    "solver.partition_misses",
    "solver.learned_reused",
    "store.appends",
    "store.fsyncs",
    "store.compactions",
    "store.segments_written",
    "store.segments_reused",
];

/// The traced run: the fixed script of `trace_ops` operations three times
/// on fresh set-ups — untraced, traced, untraced. Count metrics come from
/// the untraced passes, which must agree exactly; times come from the
/// traced pass's spans; the tracing overhead compares the two.
pub fn trace(
    prepared: &Prepared,
    work: &Path,
    seed: u64,
    trace_file: &Path,
) -> Result<Report, String> {
    let stop = Stop::Ops(prepared.trace_ops);
    let mut untraced = Vec::new();
    let mut rec = Recorder::new();
    let mut traced = None;
    let probe = Probe::new();
    for (i, tracing) in [false, true, false].into_iter().enumerate() {
        let (mut db, source, _) = timed_setup(prepared, work, &format!("trace{i}"), &probe)?;
        let pass = if tracing {
            run_pass(&mut db, prepared, seed, stop, &probe, Some(&mut rec))
        } else {
            run_pass(&mut db, prepared, seed, stop, &probe, None)
        };
        drop(db);
        remove_store(&source);
        if tracing {
            traced = Some(pass);
        } else {
            untraced.push(pass);
        }
    }
    let traced = traced.expect("one traced pass");
    let (a, b) = (&untraced[0], &untraced[1]);
    for key in EXACT {
        if a.counts.get(key) != b.counts.get(key) {
            return Err(format!(
                "count {key} differs between two passes of the same script: {:?} vs {:?}",
                a.counts.get(key),
                b.counts.get(key)
            ));
        }
    }
    let (recover_s, warm_s) = setup_split(prepared, work)?;
    rec.write_jsonl(trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    let failed = untraced.iter().chain([&traced]).map(|p| p.failed).sum();
    let attempted = untraced.iter().chain([&traced]).map(|p| p.ops).sum();
    let count = |key: &str| a.counts.get(key).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let p50 = |xs: &[f64]| median(xs).unwrap_or(0.0);

    // Self time of the read roots: the facade's own share of a read.
    let self_ns = rec.self_ns();
    let spans = rec.spans();
    let read_self_us: Vec<f64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "read" && s.parent.is_none())
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    let read_total_ms = rec.total_ms("read");
    let parse_ms = rec.durations_ms("sql.parse");
    let fast_ms = rec.durations_ms("fast_path");
    let search_ms = rec.durations_ms("engine.search");
    let eval_ms = rec.total_ms("query.eval");
    let evals = rec.durations_ms("query.eval").len() as f64;
    let ground_ms = rec.durations_ms("ground.warm");
    let solve_ms = rec.durations_ms("solve");
    let writes = a.writes as f64;
    // Throughputs over the quiet stretches of the three passes.
    let probes: Vec<f64> = untraced
        .iter()
        .chain([&traced])
        .flat_map(|p| p.probes.iter().map(|r| r.here_us))
        .collect();
    let threshold = quiet::threshold(&probes);
    let [a_ops_s, b_ops_s, traced_ops_s] = [a, b, &traced].map(|p| p.quiet(threshold).ops_per_s);
    let untraced_ops_s = (a_ops_s + b_ops_s) / 2.0;
    let partition = count("solver.partition_hits") + count("solver.partition_misses");
    let mean = |xs: &[f64]| ratio(xs.iter().fold(0.0, |a, b| a + b), xs.len() as f64);
    let sizes = &traced.sizes;

    let metrics = vec![
        Metric::new("facade.read_self_us", p50(&read_self_us), "us"),
        Metric::new("sql.parse_us_p50", p50(&parse_ms) * 1e3, "us"),
        Metric::new(
            "sql.parse_share",
            ratio(parse_ms.iter().fold(0.0, |a, b| a + b), read_total_ms),
            "ratio",
        ),
        Metric::new(
            "plan.plan_us_p50",
            p50(&rec.durations_ms("plan")) * 1e3,
            "us",
        ),
        Metric::new("plan.routes_fo", count("planner.fo_rewrite"), "count"),
        Metric::new("plan.routes_chase", count("planner.chase"), "count"),
        Metric::new("plan.routes_enumerate", count("planner.fallbacks"), "count"),
        Metric::new("fast_path.call_ms_p50", p50(&fast_ms), "ms"),
        Metric::new(
            "fast_path.answers_per_call",
            mean(&sizes.fast_answers),
            "count",
        ),
        Metric::new("worklist.misses", count("worklist.misses"), "count"),
        Metric::new(
            "worklist.hit_ratio",
            ratio(
                count("worklist.hits"),
                count("worklist.hits") + count("worklist.misses"),
            ),
            "ratio",
        ),
        Metric::new("engine.search_ms_p50", p50(&search_ms), "ms"),
        Metric::new(
            "engine.repairs_per_call",
            mean(&sizes.search_repairs),
            "count",
        ),
        Metric::new("query.eval_ms_per_repair", ratio(eval_ms, evals), "ms"),
        Metric::new("query.eval_share", ratio(eval_ms, read_total_ms), "ratio"),
        Metric::new("ground.reground_ms_p50", p50(&ground_ms), "ms"),
        Metric::new("ground.regrounds", count("grounding.regrounds"), "count"),
        Metric::new("ground.rebuilds", count("grounding.rebuilds"), "count"),
        Metric::new("ground.misses", count("grounding.misses"), "count"),
        Metric::new("solve.call_ms_p50", p50(&solve_ms), "ms"),
        Metric::new(
            "solve.models_per_call",
            mean(&sizes.program_repairs),
            "count",
        ),
        Metric::new(
            "solve.partition_hit_ratio",
            ratio(count("solver.partition_hits"), partition),
            "ratio",
        ),
        Metric::new(
            "solve.learned_reused",
            count("solver.learned_reused"),
            "count",
        ),
        Metric::new("warm.warm_s", warm_s, "s"),
        Metric::new("storage.recover_s", recover_s, "s"),
        Metric::new(
            "storage.fsyncs_per_write",
            ratio(count("store.fsyncs"), writes),
            "count",
        ),
        Metric::new(
            "storage.wal_bytes_per_write",
            median(&traced.wal_bytes_per_write).unwrap_or(0.0),
            "B",
        ),
        Metric::new("storage.compactions", count("store.compactions"), "count"),
        Metric::new(
            "storage.segments_written",
            count("store.segments_written"),
            "count",
        ),
        Metric::new(
            "storage.segments_reused",
            count("store.segments_reused"),
            "count",
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - traced_ops_s / untraced_ops_s,
            "ratio",
        ),
    ];
    println!(
        "perfbench {} seed {seed} traced: {} ops per pass; quiet stretches ran untraced {a_ops_s:.2} and {b_ops_s:.2} ops/s, traced {traced_ops_s:.2} ops/s; spans in {}",
        prepared.name,
        prepared.trace_ops,
        trace_file.display()
    );
    for m in &metrics {
        show(&m.name, Some(m.value), &m.unit, "");
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Directory for this run's stores and trace files, inside the checkout.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()))
}
