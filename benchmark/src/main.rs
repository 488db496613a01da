//! The repo benchmark: four workloads, six end-to-end metrics, and an
//! outside-in per-layer trace. See README.md beside this package.
//!
//! ```text
//! benchmark run     --workload <w> --seed <u64> [--seconds <n>] [--append <set.json>]
//! benchmark trace   --workload <w> --seed <u64> [--seconds <n>]
//! benchmark compare <A.json> <B.json>
//! benchmark --workload <w> --seed <u64> --seconds <n> --trace <0|1>     (the driver's form)
//! ```

mod compare;
mod inputs;
mod layers;
mod metrics;
mod procfs;
mod run;
mod spans;
#[cfg(all(test, standin_deps))]
mod standins;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// `run_seconds` in BENCHMARK.json: the length of timed phase the workloads'
/// repetition counts are sized for. `--seconds` scales the counts.
pub const RUN_SECONDS: f64 = 8.0;

/// Which third-party crates this binary was built against (build.rs).
pub const DEPS: &str = if cfg!(standin_deps) {
    "stand-ins (benchmark/vendor)"
} else {
    "crates.io"
};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub append: Option<PathBuf>,
    /// Print the driver's one-line JSON result last.
    pub driver_line: bool,
    /// When the process started, as near as `main` can tell.
    pub started: Instant,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run|trace --workload <{}> --seed <u64> [--seconds <n>] [--append <set.json>]\n       \
         benchmark compare <A.json> <B.json>\n       \
         benchmark --workload <w> --seed <u64> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Parse `--key value` pairs; `None` on anything unexpected.
fn parse_flags(flags: &[String], started: Instant) -> Option<(Args, Option<bool>)> {
    let (mut workload, mut seed, mut seconds, mut append, mut trace) =
        (None, None, RUN_SECONDS, None, None);
    let mut it = flags.iter();
    while let Some(key) = it.next() {
        let value = it.next()?;
        match key.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--append" => append = Some(PathBuf::from(value)),
            "--trace" => trace = Some(matches!(value.as_str(), "1" | "true")),
            _ => return None,
        }
    }
    let args = Args {
        workload: workload?,
        seed: seed?,
        seconds,
        append,
        driver_line: false,
        started,
    };
    Some((args, trace))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = argv.first() else {
        return usage();
    };
    let ok = match first.as_str() {
        "compare" => match argv.as_slice() {
            [_, a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => return usage(),
        },
        "run" | "trace" => match parse_flags(&argv[1..], started) {
            Some((args, None)) if first == "run" => run::run(&args),
            Some((args, None)) => run::trace(&args),
            _ => return usage(),
        },
        _ => match parse_flags(&argv, started) {
            Some((mut args, Some(trace))) => {
                args.driver_line = true;
                if trace {
                    run::trace(&args)
                } else {
                    run::run(&args)
                }
            }
            _ => return usage(),
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
