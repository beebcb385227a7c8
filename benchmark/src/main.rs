//! **ledger** — the repo's one benchmark: four workloads over one
//! seeded lake, end-to-end metrics a user would see, and per-layer
//! numbers from spans the ledger takes around the product's public
//! functions and endpoints. `benchmark/README.md` says why each
//! workload and metric exists; `BENCHMARK.json` fixes names and bounds,
//! and lists the three workloads that gate later changes (`cluster_cold`
//! is run and traced here, but is too unsteady on a shared host to gate).
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!        [--lake-seed N] [--smoke] [--repeat N] [--out FILE]
//! ledger compare <run-set A> <run-set B>
//! ```
//!
//! A run prints every metric by name with its unit, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 1` is the separate traced run that
//! yields the per-layer metrics. `--repeat N` runs seeds `seed..seed+N`;
//! `--out` appends one record per run to a run-set file for `compare`.
//! The exit code is non-zero only when a verify pass (or set-up) fails —
//! then nothing is printed, because nothing verified was measured.

mod alloc;
mod compare;
mod lake;
mod metrics;
mod replay;
mod spans;
mod summary;
mod system;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use lake::{Sizes, DEFAULT_SEED};
use workloads::{RunArgs, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ledger --workload <serve_cold|serve_hot|cluster_cold|lake_churn> \
[--seed N] [--seconds S] [--trace 0|1] [--lake-seed N] [--smoke] [--repeat N] [--out FILE]\n       \
ledger compare <run-set A> <run-set B>";

struct Cli {
    workload: Workload,
    lake_seed: u64,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: Workload::ServeCold,
        lake_seed: DEFAULT_SEED,
        seed: DEFAULT_SEED,
        seconds: 35.0,
        traced: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => cli.seed = parse_u64(value).ok_or_else(bad)?,
            "--lake-seed" => cli.lake_seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                cli.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => cli.traced = parse_u64(value).filter(|t| *t <= 1).ok_or_else(bad)? == 1,
            "--repeat" => cli.repeat = parse_u64(value).filter(|n| *n >= 1).ok_or_else(bad)?,
            "--out" => cli.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    Ok(cli)
}

fn run_workloads(cli: &Cli) -> Result<(), String> {
    for i in 0..cli.repeat {
        let result = workloads::run(&RunArgs {
            workload: cli.workload,
            lake_seed: cli.lake_seed,
            seed: cli.seed + i,
            seconds: cli.seconds,
            traced: cli.traced,
            sizes: if cli.smoke {
                Sizes::smoke()
            } else {
                Sizes::full()
            },
        })?;
        eprintln!(
            "ledger: threads fixed at {}; this machine offers {}",
            lake::THREADS,
            std::thread::available_parallelism().map_or(0, usize::from)
        );
        if let Some(path) = &cli.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(file, "{}", result.record_line()).map_err(|e| format!("{path}: {e}"))?;
        }
        print!("{}", result.table());
        println!("{}", result.contract_line());
    }
    Ok(())
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let (report, bad) = compare::compare(&read(a)?, &read(b)?, &read(benchmark)?)?;
    print!("{report}");
    Ok(bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => run_compare(a, b),
        _ => parse_cli(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|cli| run_workloads(&cli))
            .map(|()| false),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let c = cli(&[
            "--workload",
            "lake_churn",
            "--seed",
            "12",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Workload::LakeChurn);
        assert_eq!((c.seed, c.seconds, c.traced, c.repeat), (12, 10.0, true, 1));
        assert_eq!(
            cli(&["--workload", "serve_hot"]).unwrap().seed,
            DEFAULT_SEED
        );
        let c = cli(&["--workload", "serve_hot", "--lake-seed", "0x5eed2"]).unwrap();
        assert_eq!((c.lake_seed, c.seed), (0x5eed2, DEFAULT_SEED));
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--workload", "serve_warm"]).is_err());
        assert!(cli(&["--workload", "serve_hot", "--trace", "2"]).is_err());
        assert!(cli(&["--workload", "serve_hot", "--seconds", "0"]).is_err());
        assert!(cli(&["--workload", "serve_hot", "--seed"]).is_err());
        assert!(cli(&["--workload", "serve_hot", "--frobnicate", "1"]).is_err());
    }
}
