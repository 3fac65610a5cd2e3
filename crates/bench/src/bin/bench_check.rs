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
//! headline numbers of the index/interning PRs
//! (`repair_instance_size_axis` / `incremental/800`) and of the parallel
//! search PR (`repair_parallel` / `threads/4` at clean=800). `tolerance`
//! is the allowed slowdown factor (default 1.25 — “fail if >25% slower
//! than the committed baseline”). The host-independent within-run gates
//! (one series as a fraction of another from the same run) are the
//! [`RATIO_GATES`] table; each applies when both of its series are
//! present in the *current* file. The parser is a purpose-built
//! extractor for the harness's own fixed output shape, not a general JSON
//! reader — this workspace is dependency-free by construction.

use std::process::ExitCode;

/// Series guarded against regression: (group, name).
const GUARDED: &[(&str, &str)] = &[
    ("repair_instance_size_axis", "incremental/800"),
    ("repair_parallel", "threads/4"),
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
    // Must hold on a single-core host too, where the pool degrades to
    // sequential plus bounded scheduler overhead (measured ~1.15x); lost
    // stealing, lock contention or busy-spin overshoot it immediately.
    ("repair_parallel", "threads/4", "threads/1", 1.5, "parallel scheduler regression"),
    // Regrounding after a single-fact insert or DRed delete at
    // clean=800 must be at least 4x cheaper than grounding from scratch. Measured ~0.04x both ways; a grounder that silently falls
    // back to full rematerialisation converges on 1x.
    ("program_route", "reground_delta/800", "ground_scratch/800", 0.25, "incremental grounding regression (insert)"),
    ("program_route", "reground_delete/800", "ground_scratch/800", 0.25, "incremental grounding regression (delete)"),
    // A warm `SolverState` resolving after a one-fact reground reuses
    // every unchanged partition's model set and re-enumerates only the
    // touched component: at least 4x under a scratch enumeration.
    ("program_route", "resolve_delta/800", "solve/800", 0.25, "incremental solving regression"),
    // Key-FD workload with 8 conflicting pairs (256 repairs): FO-rewrite
    // answers by index probes over D while enumeration materialises every
    // repair, so the fast path must be at least 20x under it. Measured
    // ~0.002x; a planner that falls back to enumeration converges on 1x.
    ("fast_path", "fast_path/800", "enumeration/800", 0.05, "planner fast-path regression"),
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

fn run(current_path: &str, baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let current = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read {current_path}: {e}"))?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    for (group, name) in GUARDED {
        let base_median = median_ns(&baseline, group, name)
            .ok_or_else(|| format!("{baseline_path}: no record of {group}/{name}"))?;
        // Slow entries run with few samples; compare their stablest
        // statistic (the minimum) instead of a 2-of-5 order statistic.
        let (stat, cur, base) = if base_median > SLOW_ENTRY_NS {
            let cur = min_ns(&current, group, name)
                .ok_or_else(|| format!("{current_path}: no record of {group}/{name}"))?;
            let base = min_ns(&baseline, group, name)
                .ok_or_else(|| format!("{baseline_path}: no record of {group}/{name}"))?;
            ("min", cur, base)
        } else {
            let cur = median_ns(&current, group, name)
                .ok_or_else(|| format!("{current_path}: no record of {group}/{name}"))?;
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
    }
    check_ratios(&current)
}

/// Enforce every [`RATIO_GATES`] row whose two series are present in
/// `current`.
fn check_ratios(current: &str) -> Result<(), String> {
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
            return Err(format!(
                "{group} {num} is {ratio:.3}x {den} in the same run (> {cap:.3}x): {meaning}"
            ));
        }
    }
    Ok(())
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
        Err(msg) => {
            eprintln!("bench gate FAILED: {msg}");
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

    /// A harness line for `group` holding `num` and `den` medians.
    fn ratio_line(group: &str, num: (&str, u128), den: (&str, u128)) -> String {
        let record = |(name, ns): (&str, u128)| {
            format!("{{\"name\":\"{name}\",\"median_ns\":{ns},\"mean_ns\":{ns},\"min_ns\":{ns},\"samples\":7,\"iters\":1}}")
        };
        format!(
            "{{\"group\":\"{group}\",\"results\":[{},{}]}}\n",
            record(num),
            record(den)
        )
    }

    #[test]
    fn ratio_gates_pass_at_cap_and_fail_above_it() {
        // A denominator of 300 ns puts every cap (1.5, 1/4, 1/20, 0.3)
        // on a whole numerator, so "at cap" is exact.
        for &(group, num, den, cap, meaning) in RATIO_GATES {
            let at_cap = (cap * 300.0).round() as u128;
            let line = ratio_line(group, (num, at_cap), (den, 300));
            assert_eq!(check_ratios(&line), Ok(()), "{group} {num} at its cap");
            let line = ratio_line(group, (num, at_cap + 1), (den, 300));
            let err = check_ratios(&line).unwrap_err();
            assert!(err.contains(meaning), "{group} {num}: {err}");
        }
        // Absent series skip their row.
        assert_eq!(check_ratios(SAMPLE), Ok(()));
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
