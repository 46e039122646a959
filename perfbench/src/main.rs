//! `deuce-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a `host` line, a `run` line describing the inputs and the
//! simulated outputs, and, last, the result object. Exits non-zero
//! without a result when the program under test fails outright.

use std::path::Path;
use std::process::ExitCode;

use deuce_perfbench::{host, run, Options, Scale, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: deuce-perfbench --workload <gen-deuce|file-paged-dyndeuce|serve-4t-2s> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
        work_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join(".work"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("deuce-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    println!("{{\"host\": {}}}", host::json(checkout));
    match run(&opts) {
        Ok(outcome) => {
            for mismatch in &outcome.mismatches {
                eprintln!("deuce-perfbench: gate failed: {mismatch}");
            }
            println!(
                "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"detail\": {}}}}}",
                opts.workload.name(),
                opts.seed,
                opts.seconds,
                u8::from(opts.trace),
                outcome.inputs
            );
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("deuce-perfbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
