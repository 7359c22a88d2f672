//! `flux-lint` — offline conformance pass over the workspace sources.
//!
//! Exits 0 when the tree is clean, 1 with one diagnostic per line when
//! any rule fires (see the library docs for the rules). The workspace
//! root defaults to the directory containing this crate's `crates/`
//! parent and can be overridden with the `FLUX_LINT_ROOT` environment
//! variable.
//!
//! The one flag, `--annotate`, also emits one GitHub Actions `::error`
//! workflow command per violation, so findings surface inline on the PR
//! diff.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::var_os("FLUX_LINT_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(flux_lint::workspace_root);
    let mut annotate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--annotate" => annotate = true,
            other => {
                eprintln!("flux-lint: unknown flag `{other}` (try --annotate)");
                return ExitCode::from(2);
            }
        }
    }

    let violations = match flux_lint::lint_tree(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flux-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if annotate {
        for v in &violations {
            // GitHub Actions workflow command: newlines must be %0A to
            // keep the annotation on one command line.
            println!(
                "::error file={},line={}::[{}] {}",
                v.file,
                v.line,
                v.rule.name(),
                v.message.replace('%', "%25").replace('\n', "%0A")
            );
        }
    }
    if violations.is_empty() {
        println!("flux-lint: clean");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("flux-lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}
