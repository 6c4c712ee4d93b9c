//! Command line: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints one line per metric (name, value, unit, exact or timed), then,
//! as the last line, the JSON result. A wrong output, a broken invariant
//! or a bad argument ends the run with a non-zero exit code and no result.

use perfbench::report::Report;
use perfbench::{Options, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options { seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required; one of {WORKLOADS:?}"))?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&workload, &opts) {
        Ok(report) => {
            let table = Report::expected(opts.trace);
            print!("{}", report.lines(table));
            println!("{}", report.json(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} seed {}: {e}", opts.seed);
            ExitCode::FAILURE
        }
    }
}
