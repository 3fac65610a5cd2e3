//! End-to-end benchmark of the `cqa` `Database` facade.
//!
//! ```text
//! perfbench --workload <register|fk_nulls|churn> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --repeat N [--workload <name|all>] [--seed N] [--seconds S] [--trace 0|1] [--same-seed]
//! ```
//!
//! A run prints a human-readable summary and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics of a closed loop through `Database`;
//! `--trace 1` reports the per-layer metrics of a traced fixed script. The
//! repeat mode runs the benchmark as child processes and prints each
//! metric's median and quartiles. See `README.md` for the workloads and
//! the metric-to-layer map.

mod quiet;
mod repeat;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: Option<usize>,
    pub same_seed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
        same_seed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--same-seed" {
            args.same_seed = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            "--repeat" => args.repeat = Some(number(&value)?.max(2) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        if args.repeat.is_none() {
            return Err("--workload is required".to_string());
        }
        args.workload = "all".to_string();
    }
    Ok(args)
}

fn run_once(args: &Args) -> Result<stats::Report, String> {
    let work = run::work_dir(&args.workload, args.seed);
    let prepared = workloads::prepare(&args.workload, args.seed, &work).ok_or_else(|| {
        format!(
            "unknown workload {:?}; choose one of {:?}",
            args.workload,
            workloads::NAMES
        )
    })?;
    let result = prepared.and_then(|prepared| {
        if args.trace {
            let file = PathBuf::from(".bench_work")
                .join("traces")
                .join(format!("{}-{}.jsonl", args.workload, args.seed));
            run::trace(&prepared, &work, args.seed, &file)
        } else {
            run::measure(&prepared, &work, args.seed, args.seconds as f64)
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.repeat {
        Some(n) => repeat::repeat(&args, n),
        None => run_once(&args).map(|report| println!("{}", report.to_json())),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
