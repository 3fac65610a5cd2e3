//! A minimal, dependency-free timing harness for the `[[bench]]` targets.
//!
//! The container this workspace builds in has no network access, so the
//! usual `criterion` dependency is out; this module provides the subset
//! the benches need: auto-calibrated iteration counts, multiple samples,
//! median/mean/min statistics, a readable table on stdout and a
//! machine-readable JSON-lines record.
//!
//! JSON output: set `BENCH_JSON=/path/to/file` and every finished group
//! appends one JSON object per line (`{"group": …, "results": [...]}`),
//! which is how `BENCH_1.json` baselines are recorded.

use std::hint::black_box;
use std::time::Instant;

/// Statistics of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (unique within its group).
    pub name: String,
    /// Median of the per-iteration sample means, nanoseconds.
    pub median_ns: u128,
    /// Mean of the per-iteration sample means, nanoseconds.
    pub mean_ns: u128,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

impl BenchResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{:?},\"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"samples\":{},\"iters\":{}}}",
            self.name, self.median_ns, self.mean_ns, self.min_ns, self.samples, self.iters
        )
    }
}

/// A named group of benchmarks (the unit reported and recorded together).
pub struct Harness {
    group: String,
    results: Vec<BenchResult>,
}

/// Untimed calls made before a series is sized; the fastest sizes it.
const CALIBRATION_CALLS: usize = 3;

/// Iteration count and sample count for a payload whose fastest untimed
/// run took `once_ns`: aim at ~20 ms per sample, at least one iteration, fewer
/// samples for very slow payloads — but never fewer than five. A median
/// of two samples is just the slower of two runs, which once recorded a
/// 2.8x-inflated baseline for `repair_parallel/threads/2` (302 ms median
/// vs 107 ms min) and turned the regression gate into a coin flip; five
/// samples bound a slow entry to ~5 s of wall clock while making the
/// median a real central tendency.
fn calibrate(once_ns: u128) -> (u64, usize) {
    let once_ns = once_ns.max(1);
    const TARGET_SAMPLE_NS: u128 = 20_000_000;
    let iters: u64 = (TARGET_SAMPLE_NS / once_ns).clamp(1, 1_000_000) as u64;
    let samples: usize = if once_ns > 200_000_000 { 5 } else { 7 };
    (iters, samples)
}

/// The fastest of [`CALIBRATION_CALLS`] untimed runs of `once`, which
/// makes one call and returns its nanoseconds.
fn fastest(mut once: impl FnMut() -> u128) -> u128 {
    (0..CALIBRATION_CALLS)
        .map(|_| once())
        .min()
        .expect("CALIBRATION_CALLS > 0")
}

/// Format nanoseconds human-readably.
fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl Harness {
    /// Start a benchmark group.
    pub fn new(group: impl Into<String>) -> Self {
        let group = group.into();
        println!("\n== {group} ==");
        Harness {
            group,
            results: Vec::new(),
        }
    }

    /// Time `f`, auto-calibrating iterations to roughly 20 ms per sample
    /// (minimum one iteration; slow payloads get fewer samples). The
    /// iteration count comes from the fastest of three (`CALIBRATION_CALLS`)
    /// untimed calls (which also warm caches and lazy indexes), so one
    /// slow first call — paying for the heap the previous series left —
    /// does not shrink the series. The sample loop times whole iteration
    /// batches with one clock read — the lowest-overhead form, right for
    /// self-contained payloads.
    pub fn bench<T>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> T) -> &BenchResult {
        let (iters, samples) = calibrate(fastest(|| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos()
        }));

        let mut per_iter: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_nanos() / iters as u128);
        }
        self.record(name.into(), per_iter, samples, iters)
    }

    /// Like [`Harness::bench`], but each iteration first runs `setup`
    /// *outside* the timed region and hands its value to `f` — for
    /// payloads that consume state (e.g. applying a delta to a cloned
    /// grounding) whose preparation cost must not pollute the series.
    /// Pays two clock reads per iteration instead of per batch. Calibrated
    /// like [`Harness::bench`], on the timed part of each untimed call.
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: impl Into<String>,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) -> &BenchResult {
        let (iters, samples) = calibrate(fastest(|| {
            let s = setup();
            let t0 = Instant::now();
            black_box(f(s));
            t0.elapsed().as_nanos()
        }));

        let mut per_iter: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut timed: u128 = 0;
            for _ in 0..iters {
                let s = setup();
                let t = Instant::now();
                black_box(f(s));
                timed += t.elapsed().as_nanos();
            }
            per_iter.push(timed / iters as u128);
        }
        self.record(name.into(), per_iter, samples, iters)
    }

    /// Shared statistics + reporting tail of the `bench*` methods.
    fn record(
        &mut self,
        name: String,
        mut per_iter: Vec<u128>,
        samples: usize,
        iters: u64,
    ) -> &BenchResult {
        per_iter.sort_unstable();
        let median_ns = per_iter[per_iter.len() / 2];
        let mean_ns = per_iter.iter().sum::<u128>() / per_iter.len() as u128;
        let min_ns = per_iter[0];
        println!(
            "  {name:<44} median {:>12}  (min {}, {samples}x{iters} iters)",
            fmt_ns(median_ns),
            fmt_ns(min_ns),
        );
        self.results.push(BenchResult {
            name,
            median_ns,
            mean_ns,
            min_ns,
            samples,
            iters,
        });
        self.results.last().expect("just pushed")
    }

    /// The recorded result for `name`, if any.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Finish the group: append a JSON-lines record when `BENCH_JSON` is
    /// set, and return the results.
    pub fn finish(self) -> Vec<BenchResult> {
        if let Ok(path) = std::env::var("BENCH_JSON") {
            use std::io::Write;
            let line = format!(
                "{{\"group\":{:?},\"results\":[{}]}}\n",
                self.group,
                self.results
                    .iter()
                    .map(BenchResult::to_json)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(mut file) => {
                    if let Err(e) = file.write_all(line.as_bytes()) {
                        eprintln!("BENCH_JSON write failed: {e}");
                    }
                }
                Err(e) => eprintln!("BENCH_JSON open failed ({path}): {e}"),
            }
        }
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_plausible_stats() {
        let mut h = Harness::new("self_test");
        h.bench("noop_sum", || (0..100u64).sum::<u64>());
        let r = h.result("noop_sum").unwrap();
        assert!(r.iters >= 1);
        assert!(r.min_ns <= r.median_ns);
        let results = h.finish();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert!(fmt_ns(12_345).contains("µs"));
        assert!(fmt_ns(12_345_678).contains("ms"));
        assert!(fmt_ns(2_345_678_901).ends_with(" s"));
    }
}
