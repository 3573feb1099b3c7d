//! The starsim benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and a per-layer breakdown from traced ones.
//!
//! ```text
//! perfbench --workload <dense-field|wide-sky|session-churn> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. See README.md for the workloads, the metrics and the
//! layer map.

mod check;
mod host;
mod metrics;
mod scene;
mod selftest;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use scene::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dense-field|wide-sky|session-churn> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--self-test" {
        return match selftest::run() {
            Ok(()) => {
                println!("self-test: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = format!(
        "auto({})",
        parallelism.min(starsim::gpu::DeviceSpec::gtx480().sm_count as usize)
    );
    println!("{}", host::record(&workers));
    let shape = args.workload.shape();
    println!(
        "workload: {} seed={} seconds={} trace={} stars={} image={}x{} roi={} burst={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        shape.stars,
        shape.side,
        shape.side,
        shape.roi,
        shape.burst
    );
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, shape)
    } else {
        workloads::run(args.workload, args.seed, args.seconds, shape, false)
    };
    let result =
        outcome.and_then(|outcome| outcome.result_json(catalogue).map(|line| (outcome, line)));
    match result {
        Ok((outcome, line)) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            for (name, unit) in catalogue {
                println!("{name} = {} {unit}", outcome.values[name]);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
