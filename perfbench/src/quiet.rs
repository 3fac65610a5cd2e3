//! Host-quiet filter.
//!
//! On a shared host the speed of cache-bound code on a core switches
//! between a quiet mode and a contended one (another tenant busy on the
//! same physical core), in stretches from a fraction of a second to many
//! seconds, and the contended mode runs such code up to twice as slowly.
//! Each core of the machine switches on its own. A median over a run then
//! moves with the share of contended time, not with the program.
//!
//! A short fixed probe — a sort and a B-tree build, as cache-bound as the
//! engine's own work — runs between operations. When it reads contended,
//! the run moves to whichever core probes fastest (the client stays one
//! thread; it only changes core). The operations measured between two
//! quiet probes on one core are the ones a run reports.
//!
//! The probes do not depend on the program, so which operations count
//! does not depend on how fast the program is: a change that slows every
//! operation, or only a few (a periodic compaction), shows in the quiet
//! stretches as it would in the whole run.

use crate::stats::percentile;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Least loop time between two probes, in seconds.
pub const GAP_S: f64 = 0.025;

/// A probe is quiet when it takes at most this factor of the run's
/// 2nd-percentile probe: the run's quiet probe time, as long as some 2% of
/// the run was quiet.
pub const QUIET_RATIO: f64 = 1.15;

/// Rounds of one probe.
const ROUNDS: usize = 3;

extern "C" {
    /// glibc's wrapper of the Linux system call: `mask` is a `cpu_set_t`
    /// prefix of `size` bytes.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Run the calling thread on `cpu` only. False if the kernel refused.
fn pin(cpu: usize) -> bool {
    let mask = 1u64 << cpu;
    // SAFETY: `mask` outlives the call, and the kernel reads `size` bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// One probe reading.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// The probe on the core the last operation ran on.
    pub here_us: f64,
    /// The probe on the core the next operation runs on.
    pub next_us: f64,
    /// Whether the run changed core, so the next operation finds the
    /// caches of a core it has not used lately.
    pub moved: bool,
}

/// The fixed probe, its input and the core the run is on.
pub struct Probe {
    input: Vec<u64>,
    cores: usize,
    core: Cell<Option<usize>>,
    fastest_us: Cell<f64>,
}

impl Probe {
    /// A probe over the cores this process may use (at most 64), which
    /// pins the thread to the first of them.
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let input = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
        let probe = Probe {
            input,
            cores,
            core: Cell::new(None),
            fastest_us: Cell::new(f64::INFINITY),
        };
        if cores > 1 && pin(0) {
            probe.core.set(Some(0));
        }
        probe
    }

    /// The probe's time on the current core, in microseconds: the fastest
    /// of a few rounds, so that neither the cache the last operation left
    /// cold nor an interrupt decides it.
    fn time(&self) -> f64 {
        let us = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                let mut v = black_box(&self.input).clone();
                v.sort_unstable();
                let mut tree = BTreeMap::new();
                for (i, x) in v.iter().step_by(4).enumerate() {
                    tree.insert(x % 1024, i);
                }
                black_box(tree.len());
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        self.fastest_us.set(self.fastest_us.get().min(us));
        us
    }

    /// Probe the current core; if it reads contended against the fastest
    /// probe so far, probe the other cores too and stay on the fastest.
    pub fn run(&self) -> Reading {
        let here_us = self.time();
        let mut reading = Reading {
            here_us,
            next_us: here_us,
            moved: false,
        };
        let Some(home) = self.core.get() else {
            return reading;
        };
        if here_us <= self.fastest_us.get() * QUIET_RATIO {
            return reading;
        }
        let mut best = home;
        for core in (0..self.cores).filter(|&c| c != home) {
            if pin(core) {
                let us = self.time();
                if us < reading.next_us {
                    reading.next_us = us;
                    best = core;
                }
            }
        }
        if pin(best) {
            self.core.set(Some(best));
            reading.moved = best != home;
        } else {
            // The kernel refused; leave the thread where it is.
            self.core.set(None);
        }
        reading
    }
}

/// The probe time at or under which a probe of this run counts as quiet.
pub fn threshold(probes_us: &[f64]) -> f64 {
    percentile(probes_us, 2.0).map_or(f64::INFINITY, |p| p * QUIET_RATIO)
}
