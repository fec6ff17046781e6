//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale paper|tiny]
//! ```
//!
//! Prints the start-up record as one JSON line, then the result as the last line of
//! standard output. Traced runs also write their spans to
//! `perfbench/traces/<workload>-seed<n>.jsonl`. Exits 1 on a typed error, a failed
//! determinism self-check or a result that failed verification (after printing the
//! result line), 2 on bad arguments.
//!
//! The program first runs itself again with glibc's malloc thresholds pinned
//! (`host::MALLOC_TUNABLES`), so every process of a run, child processes included,
//! allocates the same way.
//!
//! `--child 1` is the measuring side of a run: it takes one untraced
//! measurement and prints it as one `measurement …` line for the parent.

use std::process::ExitCode;

use perfbench::metrics::result_json;
use perfbench::workloads::Scale;
use perfbench::{measure_once, run, Options, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--scale paper|tiny]";

fn parse_bool(value: &str, what: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("invalid {what} `{value}` (expected 0 or 1)")),
    }
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options::new("", 1);
    let mut workload = None;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let bad = |what: &str| format!("invalid {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => opts.trace = parse_bool(value, "trace flag")?,
            "--child" => child = parse_bool(value, "child flag")?,
            "--scale" => {
                opts.scale = match value.as_str() {
                    "paper" => Scale::Paper,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            opts.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok((opts, child))
}

fn main() -> ExitCode {
    match perfbench::host::with_pinned_malloc() {
        None => {}
        Some(Ok(code)) => return ExitCode::from(u8::try_from(code).unwrap_or(1)),
        Some(Err(err)) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(1);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, child) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if child {
        return match measure_once(&opts) {
            Ok((measurement, startup)) => {
                println!("{startup}");
                println!("{}", measurement.encode());
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("perfbench: {} (seed {}): {err}", opts.workload, opts.seed);
                ExitCode::from(1)
            }
        };
    }
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} (seed {}): {err}", opts.workload, opts.seed);
            return ExitCode::from(1);
        }
    };
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        if let Err(err) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans))
        {
            eprintln!("perfbench: could not write {}: {err}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", outcome.startup);
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} (seed {}): {} of {} results failed verification",
            opts.workload, opts.seed, outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
