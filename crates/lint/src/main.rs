//! CLI for `sketch-lint`:
//!
//! ```text
//! sketch-lint [--deny] [--json] [paths…]
//! ```
//!
//! Without paths, lints the current directory tree. Without `--deny`
//! the run always exits 0 (report-only); with it, any violation is a
//! failure — the CI mode.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sketch_lint::{render_json, rules, run, Options};

const USAGE: &str = "usage: sketch-lint [--deny] [--json] [paths...]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        paths: Vec::new(),
        deny: false,
        json: false,
    };
    for arg in args {
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag}\n{USAGE}"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() {
        opts.paths.push(PathBuf::from("."));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("sketch-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        println!("{}", render_json(&report));
    } else {
        for d in &report.violations {
            println!("{}", d.render());
        }
        let rule_list = rules::RULES
            .iter()
            .map(|r| r.id)
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "sketch-lint: {} file(s), rules [{}]: {} violation(s)",
            report.files,
            rule_list,
            report.violations.len()
        );
    }

    if opts.deny && report.failed() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
