//! The `ppdc-analyzer` CLI.
//!
//! ```text
//! ppdc-analyzer --workspace            # scan the whole workspace (ci.sh gate)
//! ppdc-analyzer path/to/file.rs ...    # scan explicit files
//! ppdc-analyzer --rules                # list the rules
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use ppdc_analyzer::{analyze_files, find_workspace_root, rules, workspace_files};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workspace: false,
        paths: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--rules" => {
                for r in rules::RULES {
                    println!("{:<18} {}", r.id, r.summary);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!(
                    "usage: ppdc-analyzer (--workspace | FILE... | --rules)\n\
                     \n\
                     Project-specific lint engine for the ppdc workspace.\n\
                     --workspace   scan src/ and crates/*/src/ under the workspace root\n\
                     --rules       list the rules and exit"
                );
                return Ok(None);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` (try --help)"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppdc-analyzer: {e}");
            return ExitCode::from(2);
        }
    };

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ppdc-analyzer: cannot resolve current directory: {e}");
            return ExitCode::from(2);
        }
    };

    let result = if args.workspace {
        find_workspace_root(&cwd)
            .and_then(|root| workspace_files(&root).map(|files| (root, files)))
            .and_then(|(root, files)| analyze_files(&root, &files))
    } else if args.paths.is_empty() {
        eprintln!("ppdc-analyzer: nothing to scan (pass --workspace or file paths; see --help)");
        return ExitCode::from(2);
    } else {
        // Explicit files are reported relative to the workspace root when
        // one exists, so rule scoping matches the --workspace run.
        let root = find_workspace_root(&cwd).unwrap_or_else(|_| cwd.clone());
        let abs: Vec<PathBuf> = args.paths.iter().map(|p| cwd.join(p)).collect();
        analyze_files(&root, &abs)
    };

    match result {
        Ok(report) => {
            print!("{}", report.render_human());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ppdc-analyzer: {e}");
            ExitCode::from(2)
        }
    }
}
