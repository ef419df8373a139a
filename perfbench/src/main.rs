//! The wikistale benchmark: one command per workload, printing every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) and checking the program's outputs.
//!
//! ```text
//! perfbench --workload <serve-uniform|serve-zipf>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is
//! 0 when every output matched its reference and no fixed-rate request
//! failed, 1 otherwise or when the run failed, 2 on a usage error. See `perfbench/README.md`.

mod kernels;
mod loadgen;
mod pipeline;
mod plan;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use plan::Popularity;
use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

#[global_allocator]
static ALLOC: wikistale_obs::alloc::CountingAlloc = wikistale_obs::alloc::CountingAlloc;

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["serve-uniform", "serve-zipf"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where checkpoints and span files go.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(bad(&format!("not one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    // One exec worker: predictors call `par_chunks`, so a larger pool
    // would start threads inside every served request and make set-up
    // times depend on the host's idle cores.
    wikistale_exec::set_threads(1);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let popularity = match args.workload.as_str() {
        "serve-uniform" => Popularity::Uniform,
        _ => Popularity::Zipf,
    };
    serve::run(args, popularity, &mut report, &mut tracer)?;
    if args.trace {
        let path = args
            .work_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args).and_then(|report| Ok((report.render(names)?, report))) {
        Ok((text, report)) => {
            print!("{text}");
            if report.correct() {
                return ExitCode::SUCCESS;
            }
            if report.mismatches > 0 {
                eprintln!(
                    "perfbench: {} outputs differ from the reference",
                    report.mismatches
                );
            }
            if report.fixed_rate_failures > 0 {
                eprintln!(
                    "perfbench: {} requests failed at the fixed rate, so the latency \
                     figures do not describe a healthy server",
                    report.fixed_rate_failures
                );
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let ok = args(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("serve-zipf", 3, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "serve-zipf", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "serve-zipf", "--seed", "1", "--seconds", "5"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = wikistale_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(wikistale_obs::json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(wikistale_obs::json::Value::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
