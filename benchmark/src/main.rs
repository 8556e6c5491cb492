//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! spcg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! spcg-benchmark <name> [--seed <n>] [--seconds <s>] [--trace]
//! spcg-benchmark --repeat-check [--seed <n>] [--seconds <s>]
//! ```

use spcg_benchmark::repeat::repeat_check;
use spcg_benchmark::report::render;
use spcg_benchmark::run::{run, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed runs use unless told otherwise, and the one to hold out: a
/// claim made on the first must also hold on the second.
const DEFAULT_SEED: u64 = 4177;
const HELD_OUT_SEED: u64 = 9311;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

fn usage() -> String {
    format!(
        "usage: spcg-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         \x20      spcg-benchmark --repeat-check [--seed <n>] [--seconds <s>]\n\
         workloads: {}\n\
         defaults: --seed {DEFAULT_SEED} (hold out {HELD_OUT_SEED} to confirm a claim), \
         --seconds {DEFAULT_SECONDS}, --trace 0",
        spcg_benchmark::workloads::NAMES.join(" ")
    )
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat_check: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` meaning on.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--repeat-check" => cli.repeat_check = true,
            name if !name.starts_with('-') && cli.workload.is_none() => {
                cli.workload = Some(name.to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("spcg-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.repeat_check {
        return match repeat_check(cli.seed, cli.seconds) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(bad) => {
                eprintln!("spcg-benchmark: {bad} comparisons failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("spcg-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = cli.workload else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let mut cfg = RunConfig::new(&workload, cli.seed, cli.seconds, cli.trace);
    cfg.trace_path = Some(PathBuf::from(format!(
        "benchmark/out/trace.{workload}.json"
    )));
    match run(&cfg) {
        Ok(outcome) => {
            print!("{}", render(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("spcg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
