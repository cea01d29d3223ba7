//! `cargo run -p xtask -- <task>` — workspace automation entry point.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.iter().any(|a| a == "--json")),
        Some("loc") => run_loc(),
        Some("e2e-pairs") => run_pairs(args.into_iter().skip(1)),
        Some(other) => {
            eprintln!("unknown task {other:?}");
            print_usage();
            ExitCode::FAILURE
        }
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo run -p xtask -- <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint [--json]    run the repo-specific static-analysis rules (R1-R10);");
    eprintln!("                   --json prints machine-readable diagnostics on stdout");
    eprintln!("  loc              print lines of Rust per crate: every .rs line, and the");
    eprintln!("                   src/ lines outside #[cfg(test)]-gated items");
    eprintln!("  e2e-pairs --parent <rev> --pairs <n> [--workload <name>]...");
    eprintln!("                   run BENCHMARK.json's command on <rev> and on the working");
    eprintln!("                   tree in alternating pairs over unseen seeds, and append");
    eprintln!("                   the medians, quartiles and pairs won to BENCH_e2e.json");
}

fn run_loc() -> ExitCode {
    match xtask::loc::count_workspace(&xtask::workspace_root()) {
        Ok(per_crate) => {
            print!("{}", xtask::loc::report(&per_crate));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("loc: failed to read workspace: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_pairs(argv: impl Iterator<Item = String>) -> ExitCode {
    let outcome = xtask::pairs::PairsArgs::parse(argv)
        .and_then(|args| xtask::pairs::run(&xtask::workspace_root(), &args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("e2e-pairs: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(json: bool) -> ExitCode {
    let root = xtask::workspace_root();
    match xtask::lint_workspace(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json());
            } else if report.violations.is_empty() {
                println!(
                    "lint clean: {} files checked against R1-R10 (panic-freedom \
                     textual and transitive, deterministic simulation, lossless \
                     wire casts, invariant inventory, no-sleep discipline, \
                     doc-example coverage, serving-path allocation, must-use \
                     planners, lock discipline); {} ambiguous call(s) \
                     over-approximated",
                    report.files_scanned, report.ambiguous_calls
                );
            } else {
                for v in &report.violations {
                    eprintln!("{v}");
                }
                eprintln!(
                    "\nlint: {} violation(s) across {} files",
                    report.violations.len(),
                    report.files_scanned
                );
            }
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("lint: failed to scan workspace: {err}");
            ExitCode::FAILURE
        }
    }
}
