//! End-to-end negative tests: each `fixtures/*.rs.bad` file, planted as
//! real source in a scratch workspace, must make [`flux_lint::lint_tree`]
//! report the violation it demonstrates — proving the tree walk (not
//! just the per-file scanner) catches it.

use flux_lint::{lint_tree, Rule};
use std::path::{Path, PathBuf};

/// Copies `fixture` into a scratch workspace at crates-relative `rel`
/// and lints the scratch tree.
fn plant_and_lint(fixture: &str, rel: &str) -> Vec<flux_lint::Violation> {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let scratch: PathBuf = std::env::temp_dir().join(format!(
        "flux-lint-e2e-{}-{}",
        std::process::id(),
        fixture.replace('.', "_")
    ));
    let dst = scratch.join(rel);
    std::fs::create_dir_all(dst.parent().expect("rel has a parent")).expect("mkdir scratch");
    std::fs::copy(fixtures.join(fixture), &dst).expect("copy fixture");
    let result = lint_tree(&scratch).expect("walk scratch tree");
    std::fs::remove_dir_all(&scratch).ok();
    result
}

#[test]
fn topic_literal_fixture_fails_the_tree() {
    let v = plant_and_lint("topic_literal.rs.bad", "crates/modules/src/fake.rs");
    assert!(v.iter().any(|x| x.rule == Rule::TopicLiteral), "{v:?}");
}

#[test]
fn block_bad_fixture_fails_the_tree() {
    // Sleep, bare recv, thread join, a lock across a write, a sleep under
    // a bare waiver, an un-deadlined socket read: each function's span
    // (from its `fn` line to the next one) must hold a finding.
    let fixture = "block.rs.bad";
    let v = plant_and_lint(fixture, "crates/sim/src/fake.rs");
    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(fixture),
    )
    .expect("read fixture");
    let fns: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("fn "))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(fns.len(), 6, "the fixture plants six functions");
    for (i, &start) in fns.iter().enumerate() {
        let end = fns.get(i + 1).copied().unwrap_or(usize::MAX);
        assert!(
            v.iter().any(|x| x.rule == Rule::Block && (start..end).contains(&x.line)),
            "no block finding in the function at line {start}: {v:?}"
        );
    }
}
