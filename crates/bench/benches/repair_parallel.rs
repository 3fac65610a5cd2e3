//! Bench: the work-stealing parallel repair search on the threads axis.
//!
//! Workload: the Example-19 shape at clean=800 with 8 key conflicts and
//! one dangling FK — 2⁹ = 512 repairs from a 9-deep binary decision tree
//! over a large, mostly clean instance. This is the regime the parallel
//! strategy targets: per-node search cost is conflict-bounded (PR 1), the
//! root scan is cached (this PR), so wall-clock is dominated by tree
//! exploration plus materialisation of the surviving repairs, both of
//! which fan out across workers.
//!
//! The printed speedup (threads=N vs threads=1, same parallel
//! implementation) is the headline number; it is hardware-bound — on a
//! single-core container every thread count collapses to ~1x and the
//! scheduler overhead itself is what is being measured. `threads/4` is
//! regression-gated against the committed `BENCH_3.json` by `bench_check`.

use cqa_bench::harness::Harness;
use cqa_core::{repairs_with_config_governed, CqaCaches, RepairConfig, SearchStrategy};
use cqa_relational::CancelToken;
use std::hint::black_box;

fn repair_parallel() {
    let mut group = Harness::new("repair_parallel");
    let w = cqa_bench::example19_scaled(800, 8, 1, 31);
    let expected = 512;
    // One bundle for every thread count, created outside the timed
    // closures: each series runs on the warm root scan.
    let caches = CqaCaches::new();
    let never = CancelToken::never();
    let mut at_one: u128 = 0;
    for threads in [1usize, 2, 4, 8] {
        let config = RepairConfig {
            strategy: SearchStrategy::Parallel { threads },
            ..RepairConfig::default()
        };
        let repairs = || repairs_with_config_governed(&w.instance, &w.ics, config, &caches, &never);
        assert_eq!(repairs().unwrap().len(), expected, "workload shape drifted");
        let median = group
            .bench(format!("threads/{threads}"), || {
                black_box(repairs().unwrap())
            })
            .median_ns;
        if threads == 1 {
            at_one = median;
        } else {
            let speedup = at_one as f64 / median.max(1) as f64;
            println!("  -> speedup threads={threads} vs threads=1: {speedup:.2}x");
        }
    }
    group.finish();
}

fn main() {
    repair_parallel();
}
