//! Command-line entry of the repository benchmark:
//!
//! ```text
//! bz-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one JSON result as its last line and exits non-zero when an
//! output check failed. `--rate <req/s>` overrides a serve workload's
//! fixed offered rate; it exists to re-measure the saturated rate the
//! fixed rates were chosen from (see `README.md`), never for scored runs.

use std::process::ExitCode;

/// Environment variables that would change what `build_tenant` and the
/// plant build; the benchmark pins both settings itself.
const REFUSED_ENV: [&str; 2] = ["BZ_NOISE", "BZ_SCALAR_REFERENCE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rate = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                });
            }
            "--rate" => {
                rate = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|r| *r > 0.0)
                        .ok_or_else(|| {
                            format!("--rate must be a positive number, got '{value}'")
                        })?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rate,
    })
}

fn main() -> ExitCode {
    if let Some(name) = REFUSED_ENV
        .iter()
        .find(|name| std::env::var_os(name).is_some())
    {
        eprintln!("error: {name} is set; unset it, the benchmark pins noise V2 and the fast path");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bz_perfbench::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.rate,
    ) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.to_json());
    if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
