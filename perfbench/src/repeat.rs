//! Repeat mode: run the benchmark `n` times per workload as child
//! processes (so every run has its own process, caches and peak memory)
//! and print each metric's median, quartiles and spread — the numbers the
//! bounds in `BENCHMARK.json` are set from.
//!
//! Seeds are `seed, seed + 1, …`; with `--same-seed` every run uses
//! `seed`, and then every count metric must come out identical across the
//! runs, or the mode fails.

use crate::stats::{median, quartiles, Metric};
use crate::workloads::NAMES;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for i in 0..n {
            let seed = if args.same_seed {
                args.seed
            } else {
                args.seed + i as u64
            };
            let output = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || !result.starts_with('{') {
                failures.push(format!(
                    "{name} seed {seed}: run failed ({})",
                    output.status
                ));
                continue;
            }
            if !result.starts_with("{\"correct\": true") {
                failures.push(format!("{name} seed {seed}: answers failed checks"));
            }
            eprintln!("{name} seed {seed}: done");
            runs.push(summary_metrics(&stdout));
        }
        summarize(name, &runs, args.same_seed && args.trace, &mut failures);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// The metric lines of a run's human-readable summary,
/// `  <name> <value> <unit> [note]`; metrics a workload lacks print `n/a`
/// as their value and are left out.
fn summary_metrics(stdout: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter(|line| line.starts_with("  "))
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            let value = words.next()?.parse().ok()?;
            Some(Metric::new(name, value, words.next()?))
        })
        .collect()
}

fn summarize(name: &str, runs: &[Vec<Metric>], exact_counts: bool, failures: &mut Vec<String>) {
    let mut values: BTreeMap<&str, (Vec<f64>, &str)> = BTreeMap::new();
    for metrics in runs {
        for m in metrics {
            values
                .entry(m.name.as_str())
                .or_insert_with(|| (Vec::new(), m.unit.as_str()))
                .0
                .push(m.value);
        }
    }
    println!("{name}: {} runs", runs.len());
    println!(
        "  {:<28} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}  unit",
        "metric", "median", "q1", "q3", "spread", "min", "max"
    );
    for (metric, (xs, unit)) in &values {
        let med = median(xs).unwrap_or(0.0);
        let [q1, _, q3] = quartiles(xs).unwrap_or([med; 3]);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {metric:<28} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {min:>12.4} {max:>12.4}  {unit}"
        );
        if exact_counts && *unit == "count" && xs.iter().any(|x| x != &xs[0]) {
            failures.push(format!(
                "{name}: count {metric} differs between runs: {xs:?}"
            ));
        }
    }
}
