//! Bench regression gate: compare a freshly recorded `BENCH_JSON` file
//! against the committed baseline and fail (exit 1) if a guarded series
//! regressed beyond tolerance.
//!
//! Usage:
//!
//! ```text
//! bench_check <current.json> <baseline.json> [tolerance]
//! ```
//!
//! Both files are the JSON-lines format written by
//! [`cqa_bench::harness::Harness::finish`]. The guarded series are the
//! [`GUARDED`] table. `tolerance` is the allowed slowdown factor (default
//! 1.25 — “fail if >25% slower than the committed baseline”). The host-independent within-run gates
//! (one series as a fraction of another from the same run) are the
//! [`RATIO_GATES`] table; each applies when both of its series are
//! present in the *current* file. The parser is a purpose-built
//! extractor for the harness's own fixed output shape, not a general JSON
//! reader — this workspace is dependency-free by construction.

use std::process::ExitCode;

/// Series guarded against regression: (group, name).
const GUARDED: &[(&str, &str)] = &[
    ("repair_instance_size_axis", "incremental/800"),
    ("program_route", "reground_delta/800"),
    ("program_route", "reground_mixed_churn/800"),
    ("program_route", "resolve_delta/800"),
    ("recovery_replay", "replay/1000"),
    ("fast_path", "fast_path/80000"),
];

/// Entries whose *baseline* median exceeds this are gated on `min_ns`
/// instead of `median_ns`. Slow payloads get few samples, so their median
/// is a high-variance order statistic (the committed `BENCH_6.json`
/// recorded `repair_parallel/threads/2` at median 302 ms vs min 107 ms
/// from a 2-sample run); the minimum is the stablest point estimate a
/// small sample offers and is what criterion-style harnesses fall back
/// to for exactly this reason.
const SLOW_ENTRY_NS: u128 = 200_000_000;

/// Within-run ratio gates: `(group, numerator, denominator, cap,
/// meaning)`. Both series of a row run on the same host in the same
/// process, so the ratio is host-independent and the cap is a hard gate:
/// the run fails when `median(numerator) ÷ median(denominator)` exceeds
/// `cap`, and `meaning` names the regression. A row whose series are
/// absent from the current file (that bench was not run) is skipped.
#[rustfmt::skip]
const RATIO_GATES: &[(&str, &str, &str, f64, &str)] = &[
    // Regrounding after a single-fact insert or DRed delete at
    // clean=800 must be at least 4x cheaper than grounding from scratch. Measured ~0.04x both ways; a grounder that silently falls
    // back to full rematerialisation converges on 1x.
    ("program_route", "reground_delta/800", "ground_scratch/800", 0.25, "incremental grounding regression (insert)"),
    ("program_route", "reground_delete/800", "ground_scratch/800", 0.25, "incremental grounding regression (delete)"),
    // A warm `SolverState` resolving after a one-fact reground reuses
    // every unchanged partition's model set and re-enumerates only the
    // touched component: at least 4x under a scratch enumeration.
    ("program_route", "resolve_delta/800", "solve/800", 0.25, "incremental solving regression"),
    // perfbench's churn shape (2000 rows, 16 repairs): a warm program-route
    // call after a one-row write regrounds one row, re-solves one component
    // and reads each repair as a Δ over D, so it must stay under 0.4x a
    // cold call. Measured ~0.18x; extracting, keying and sorting whole
    // models per repair read ~0.53x.
    ("program_route", "churn_after_write/2000", "churn_fresh/2000", 0.4, "warm program-route calls pay per repair over all of D again"),
    // Key-FD workload with 8 conflicting pairs (256 repairs): FO-rewrite
    // answers by index probes over D while enumeration materialises every
    // repair, so the fast path must be at least 20x under it. Measured
    // ~0.002x; a planner that falls back to enumeration converges on 1x.
    ("fast_path", "fast_path/800", "enumeration/800", 0.05, "planner fast-path regression"),
    // A FO-rewrite point read by key lists its candidates with one probe
    // of the key column's index, so it costs O(1) in the instance where
    // the full read costs O(n). Measured ~0.00001x at 80k; an evaluator
    // that scans the relation for the root atom converges on ~0.01x.
    ("fast_path", "point/80000", "fast_path/80000", 0.001, "point reads scan the relation again"),
    // Example 19 at clean=800 with 64 repairs: evaluating the FK join
    // probes R's index once per S tuple, so it costs a small multiple of
    // a scan of R. Measured ~1.5x; a nested-loop join (|S|·|R| per
    // repair) read 4.8-9x.
    ("query_eval", "join/800", "scan/800", 2.5, "query joins no longer probe indexes"),
    // Compacting with 2 of 20 relations dirty rewrites only the dirty
    // segments plus the manifest. Measured ~0.17x; a compactor that
    // rewrites everything converges on the full series.
    ("storage_write", "compact_incremental/20", "compact_full/20", 0.3, "compaction is no longer O(changed relations)"),
];

/// Median (ns) of `name` within `group` in a harness JSON-lines dump.
fn median_ns(json: &str, group: &str, name: &str) -> Option<u128> {
    stat_ns(json, group, name, "median_ns")
}

/// Fastest sample (ns) of `name` within `group`.
fn min_ns(json: &str, group: &str, name: &str) -> Option<u128> {
    stat_ns(json, group, name, "min_ns")
}

/// Numeric field `field` of `name` within `group` in a harness JSON-lines
/// dump. Field lookup is anchored at the record's unique
/// `{"name":"…","median_ns":` prefix so sibling records never shadow it.
fn stat_ns(json: &str, group: &str, name: &str, field: &str) -> Option<u128> {
    let group_tag = format!("{{\"group\":\"{group}\",");
    let line = json.lines().find(|l| l.starts_with(&group_tag))?;
    let name_tag = format!("{{\"name\":\"{name}\",\"median_ns\":");
    let at = line.find(&name_tag)?;
    let record = &line[at..];
    let field_tag = format!("\"{field}\":");
    let at = record.find(&field_tag)? + field_tag.len();
    let digits: String = record[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Gate `current_path` against `baseline_path`: every failing row, from
/// both tables, in table order.
fn run(current_path: &str, baseline_path: &str, tolerance: f64) -> Result<(), Vec<String>> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])
    };
    let current = read(current_path)?;
    let baseline = read(baseline_path)?;
    let (current_file, baseline_file) = ((current_path, &*current), (baseline_path, &*baseline));
    let mut failures: Vec<String> = GUARDED
        .iter()
        .filter_map(|&(group, name)| {
            check_guarded(current_file, baseline_file, group, name, tolerance).err()
        })
        .collect();
    failures.extend(check_ratios(&current));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Compare one [`GUARDED`] series of the current file against the
/// baseline, each given as `(path, contents)`.
fn check_guarded(
    (current_path, current): (&str, &str),
    (baseline_path, baseline): (&str, &str),
    group: &str,
    name: &str,
    tolerance: f64,
) -> Result<(), String> {
    let missing = |path: &str| format!("{path}: no record of {group}/{name}");
    let base_median = median_ns(baseline, group, name).ok_or_else(|| missing(baseline_path))?;
    // Slow entries run with few samples; compare their stablest
    // statistic (the minimum) instead of a 2-of-5 order statistic.
    let (stat, cur, base) = if base_median > SLOW_ENTRY_NS {
        let cur = min_ns(current, group, name).ok_or_else(|| missing(current_path))?;
        let base = min_ns(baseline, group, name).ok_or_else(|| missing(baseline_path))?;
        ("min", cur, base)
    } else {
        let cur = median_ns(current, group, name).ok_or_else(|| missing(current_path))?;
        ("median", cur, base_median)
    };
    let ratio = cur as f64 / base as f64;
    println!(
        "{group}/{name}: current {stat} {:.3} ms vs baseline {:.3} ms ({ratio:.2}x, tolerance {tolerance:.2}x)",
        cur as f64 / 1e6,
        base as f64 / 1e6,
    );
    if ratio > tolerance {
        return Err(format!(
            "{group}/{name} regressed: {ratio:.2}x the committed baseline (> {tolerance:.2}x)"
        ));
    }
    Ok(())
}

/// Enforce every [`RATIO_GATES`] row whose two series are present in
/// `current`; one message per tripped row.
fn check_ratios(current: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for &(group, num, den, cap, meaning) in RATIO_GATES {
        let (Some(n), Some(d)) = (
            median_ns(current, group, num),
            median_ns(current, group, den),
        ) else {
            continue;
        };
        let ratio = n as f64 / d.max(1) as f64;
        println!("{group} {num} vs {den}: {ratio:.4}x (cap {cap:.3}x)");
        if ratio > cap {
            failures.push(format!(
                "{group} {num} is {ratio:.3}x {den} in the same run (> {cap:.3}x): {meaning}"
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (current, baseline) = match (args.get(1), args.get(2)) {
        (Some(c), Some(b)) => (c.clone(), b.clone()),
        _ => {
            eprintln!("usage: bench_check <current.json> <baseline.json> [tolerance]");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match args.get(3) {
        Some(t) => match t.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("bad tolerance `{t}`");
                return ExitCode::from(2);
            }
        },
        None => 1.25,
    };
    match run(&current, &baseline, tolerance) {
        Ok(()) => {
            println!("bench gate OK");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for msg in &failures {
                eprintln!("bench gate FAILED: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"group\":\"other\",\"results\":[{\"name\":\"incremental/800\",\"median_ns\":1,\"mean_ns\":1,\"min_ns\":1,\"samples\":7,\"iters\":1}]}\n",
        "{\"group\":\"repair_instance_size_axis\",\"results\":[",
        "{\"name\":\"incremental/80\",\"median_ns\":11,\"mean_ns\":11,\"min_ns\":11,\"samples\":7,\"iters\":1},",
        "{\"name\":\"incremental/800\",\"median_ns\":2962000,\"mean_ns\":3000000,\"min_ns\":2900000,\"samples\":7,\"iters\":6}",
        "]}\n"
    );

    #[test]
    fn extracts_the_right_series() {
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "incremental/800"),
            Some(2_962_000)
        );
        // Exact-name match: the /80 record does not shadow /800.
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "incremental/80"),
            Some(11)
        );
        assert_eq!(median_ns(SAMPLE, "no_such_group", "incremental/800"), None);
        assert_eq!(
            median_ns(SAMPLE, "repair_instance_size_axis", "missing"),
            None
        );
    }

    /// A harness line for `group` holding one record per `(name, median)`.
    fn group_line(group: &str, records: &[(&str, u128)]) -> String {
        let records: Vec<String> = records
            .iter()
            .map(|(name, ns)| {
                format!("{{\"name\":\"{name}\",\"median_ns\":{ns},\"mean_ns\":{ns},\"min_ns\":{ns},\"samples\":7,\"iters\":1}}")
            })
            .collect();
        format!(
            "{{\"group\":\"{group}\",\"results\":[{}]}}\n",
            records.join(",")
        )
    }

    /// A harness line for `group` holding `num` and `den` medians.
    fn ratio_line(group: &str, num: (&str, u128), den: (&str, u128)) -> String {
        group_line(group, &[num, den])
    }

    #[test]
    fn ratio_gates_pass_at_cap_and_fail_above_it() {
        // A denominator of 3000 ns puts every cap (1/4, 0.4, 1/20, 1/1000,
        // 2.5, 0.3) on a whole numerator, so "at cap" is exact.
        for &(group, num, den, cap, meaning) in RATIO_GATES {
            let at_cap = (cap * 3000.0).round() as u128;
            let line = ratio_line(group, (num, at_cap), (den, 3000));
            assert!(check_ratios(&line).is_empty(), "{group} {num} at its cap");
            let line = ratio_line(group, (num, at_cap + 1), (den, 3000));
            let errs = check_ratios(&line);
            assert_eq!(errs.len(), 1, "{group} {num}: {errs:?}");
            assert!(errs[0].contains(meaning), "{group} {num}: {errs:?}");
        }
        // Absent series skip their row.
        assert!(check_ratios(SAMPLE).is_empty());
    }

    #[test]
    fn every_failing_row_is_reported() {
        // Two tripped ratio rows in one file: both are named, in table
        // order, not just the first.
        let tripped = ratio_line("query_eval", ("join/800", 9000), ("scan/800", 3000))
            + &ratio_line(
                "storage_write",
                ("compact_incremental/20", 9000),
                ("compact_full/20", 3000),
            );
        let errs = check_ratios(&tripped);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(
            errs[0].contains("query joins no longer probe indexes"),
            "{errs:?}"
        );
        assert!(
            errs[1].contains("compaction is no longer O(changed relations)"),
            "{errs:?}"
        );

        // `run` reports two regressed guarded series as well as both
        // tripped rows.
        let file = |slow: &[&str]| -> String {
            let mut groups: Vec<&str> = GUARDED.iter().map(|(g, _)| *g).collect();
            groups.dedup();
            groups
                .iter()
                .map(|&group| {
                    let records: Vec<(&str, u128)> = GUARDED
                        .iter()
                        .filter(|(g, _)| *g == group)
                        .map(|&(_, n)| (n, if slow.contains(&n) { 2_000 } else { 1_000 }))
                        .collect();
                    group_line(group, &records)
                })
                .collect()
        };
        let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cur_path, base_path) = (dir.join("current.json"), dir.join("baseline.json"));
        std::fs::write(
            &cur_path,
            file(&["incremental/800", "fast_path/80000"]) + &tripped,
        )
        .unwrap();
        std::fs::write(&base_path, file(&[])).unwrap();
        let errs = run(
            cur_path.to_str().unwrap(),
            base_path.to_str().unwrap(),
            1.25,
        )
        .unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(errs[0].starts_with("repair_instance_size_axis/incremental/800 regressed"));
        assert!(errs[1].starts_with("fast_path/fast_path/80000 regressed"));
        assert!(errs[2].contains("query joins no longer probe indexes"));
        assert!(errs[3].contains("compaction is no longer O(changed relations)"));
    }

    #[test]
    fn extracts_min_ns_of_the_right_record() {
        // min_ns lookup is anchored at its record, not at the line: the
        // /80 record's min (11) must not shadow the /800 record's min.
        assert_eq!(
            min_ns(SAMPLE, "repair_instance_size_axis", "incremental/800"),
            Some(2_900_000)
        );
        assert_eq!(
            min_ns(SAMPLE, "repair_instance_size_axis", "incremental/80"),
            Some(11)
        );
    }
}
