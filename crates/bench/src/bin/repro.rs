//! Reproduces the paper's tables and figures.
//!
//! ```sh
//! repro [--quick] [--out DIR] <experiment>...
//! repro all                 # everything
//! repro table1 fig12 fig17  # a subset
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use wfp_bench::experiments;
use wfp_bench::{ReproOptions, Table};

const EXPERIMENTS: &[&str] = &[
    "table1", "table2", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "baseline", "ablation", "plan", "schemes",
];

fn usage() -> ! {
    eprintln!("usage: repro [--quick] [--out DIR] <experiment>...");
    eprintln!("experiments: all {}", EXPERIMENTS.join(" "));
    std::process::exit(2);
}

/// Parses the arguments after the program name into the options and the
/// experiments to run, each once, in the order of its first mention.
/// `None` (print usage) on an unknown argument, a missing `--out` value
/// or an empty selection.
fn parse_args(args: impl IntoIterator<Item = String>) -> Option<(ReproOptions, Vec<&'static str>)> {
    let mut opts = ReproOptions::default();
    let mut selected: Vec<&'static str> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out_dir = PathBuf::from(args.next()?),
            "all" => selected.extend(EXPERIMENTS),
            name => selected.push(EXPERIMENTS.iter().find(|&&e| e == name)?),
        }
    }
    let mut seen = HashSet::new();
    selected.retain(|&name| seen.insert(name));
    (!selected.is_empty()).then_some((opts, selected))
}

/// Runs one experiment and emits its text table.
fn run_one(name: &str, opts: &ReproOptions) -> std::io::Result<()> {
    let started = Instant::now();
    let table: Table = match name {
        "table1" => experiments::table1(opts),
        "table2" => experiments::table2(opts),
        "fig12" => experiments::fig12(opts),
        "fig13" => experiments::fig13(opts),
        "fig14" => experiments::fig14(opts),
        "fig15" => experiments::fig15(opts),
        "fig16" => experiments::fig16(opts),
        "fig17" => experiments::fig17(opts),
        "fig18" => experiments::fig18(opts),
        "fig19" => experiments::fig19(opts),
        "fig20" => experiments::fig20(opts),
        "baseline" => experiments::baseline(opts),
        "ablation" => experiments::ablation(opts),
        "plan" => experiments::plan(opts),
        "schemes" => experiments::schemes(opts),
        other => unreachable!("parse_args admits only listed experiments, not {other:?}"),
    };
    table.emit(&opts.out_dir, name)?;
    eprintln!(
        "[{name} finished in {:.1}s]\n",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() {
    let Some((opts, selected)) = parse_args(std::env::args().skip(1)) else {
        usage()
    };
    eprintln!(
        "running {} experiment(s), {} mode, results under {}\n",
        selected.len(),
        if opts.quick { "quick" } else { "full" },
        opts.out_dir.display()
    );
    for name in selected {
        if let Err(e) = run_one(name, &opts) {
            eprintln!(
                "error: cannot write {name} under {}: {e}",
                opts.out_dir.display()
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Option<(ReproOptions, Vec<&'static str>)> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn each_experiment_runs_once_in_first_mention_order() {
        let (opts, selected) = parse("table1 fig12 table1").unwrap();
        assert_eq!(selected, ["table1", "fig12"]);
        assert!(!opts.quick);
        assert_eq!(opts.out_dir, PathBuf::from("results"));

        let (_, selected) = parse("all fig12").unwrap();
        assert_eq!(selected, EXPERIMENTS);
        let (_, selected) = parse("fig12 all table1").unwrap();
        assert_eq!(selected.len(), EXPERIMENTS.len());
        assert_eq!(selected[..2], ["fig12", "table1"]);

        let (opts, selected) = parse("--quick baseline --out elsewhere").unwrap();
        assert!(opts.quick);
        assert_eq!(opts.out_dir, PathBuf::from("elsewhere"));
        assert_eq!(selected, ["baseline"]);
    }

    #[test]
    fn all_is_the_fifteen_experiments() {
        assert_eq!(EXPERIMENTS.len(), 15);
        assert_eq!(parse("all").unwrap().1, EXPERIMENTS);
    }

    #[test]
    fn unknown_names_and_incomplete_lines_are_usage_errors() {
        for line in [
            "",
            "--quick",
            "--out",
            "table1 --out",
            "table1 nope",
            "throughput",
            "-h",
        ] {
            assert!(parse(line).is_none(), "{line:?}");
        }
    }
}
