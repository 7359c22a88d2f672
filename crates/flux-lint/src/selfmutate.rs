//! Mutation smoke check (`flux-lint --self-mutate`).
//!
//! A linter that silently stops firing is worse than no linter: CI goes
//! green while the invariant rots. This module seeds one known
//! violation per semantic pass into an *in-memory* copy of the live
//! tree (the working copy is never touched), re-lints, and fails unless
//! every seeded violation is caught by the expected rule in the mutated
//! file. Each mutation targets a real pattern in the live tree, so the
//! check also fails loudly — as `pattern missing` — when a refactor
//! moves the pattern out from under it, instead of quietly testing
//! nothing.

use crate::lint_sources;
use std::path::Path;

/// One seeded violation.
struct Mutation {
    /// Short name for the report line.
    name: &'static str,
    /// The rule expected to catch it (`Rule::name()` form).
    rule: &'static str,
    /// Workspace-relative file the mutation edits.
    file: &'static str,
    /// Applies the mutation to the file's source; `None` if the
    /// anchoring pattern has disappeared from the tree.
    apply: fn(&str) -> Option<String>,
}

const MUTATIONS: &[Mutation] = &[
    // Blocking calls: a wall-clock sleep dropped into the sim engine
    // (sans-io scope, the future reactor's dispatch substrate).
    Mutation {
        name: "sleep-in-sans-io-scope",
        rule: "block",
        file: "crates/sim/src/engine.rs",
        apply: |src| {
            Some(format!(
                "{src}\n/// Seeded by `flux-lint --self-mutate`: a wall-clock stall.\n\
                 pub fn mutated_nap() {{\n\
                 \x20   std::thread::sleep(std::time::Duration::from_millis(1));\n\
                 }}\n"
            ))
        },
    },
    // Hot-path allocation: a per-frame buffer copy planted in the
    // framing chain's registered hot root `read_frame_into`.
    Mutation {
        name: "per-frame-copy-in-hot-root",
        rule: "hotalloc",
        file: "crates/wire/src/frame.rs",
        apply: |src| {
            let pat = "body.clear();";
            src.contains(pat)
                .then(|| src.replacen(pat, "let staged = body.to_vec();\n    body.clear();", 1))
        },
    },
];

/// Runs the smoke check against the workspace at `root`. Returns one
/// report line per mutation on success, or an error describing the
/// first seeded violation the linter missed.
pub fn self_mutate(root: &Path) -> Result<Vec<String>, String> {
    let sources = crate::read_sources(root).map_err(|e| format!("read workspace: {e}"))?;
    let mut report = Vec::new();
    for m in MUTATIONS {
        let Some((_, original)) = sources.iter().find(|(rel, _)| rel == m.file) else {
            return Err(format!("{}: target file `{}` not found", m.name, m.file));
        };
        let Some(mutated) = (m.apply)(original) else {
            return Err(format!(
                "{}: anchoring pattern missing from `{}` — re-anchor the mutation",
                m.name, m.file
            ));
        };
        let mutated_sources: Vec<(String, String)> = sources
            .iter()
            .map(|(rel, src)| {
                if rel == m.file {
                    (rel.clone(), mutated.clone())
                } else {
                    (rel.clone(), src.clone())
                }
            })
            .collect();
        let caught = lint_sources(&mutated_sources)
            .violations
            .into_iter()
            .find(|v| v.rule.name() == m.rule && v.file == m.file);
        match caught {
            Some(v) => report.push(format!("{}: caught by [{}] at {}:{}", m.name, m.rule, v.file, v.line)),
            None => {
                return Err(format!(
                    "{}: seeded violation in `{}` survived — the `{}` pass is blind",
                    m.name, m.file, m.rule
                ))
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seeded_violation_is_caught() {
        let report = self_mutate(&crate::workspace_root()).expect("self-mutate");
        assert_eq!(report.len(), MUTATIONS.len(), "{report:?}");
    }
}
