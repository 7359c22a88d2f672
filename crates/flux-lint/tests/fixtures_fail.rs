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
fn panic_fixture_fails_the_tree() {
    let v = plant_and_lint("panic_unwrap.rs.bad", "crates/kvs/src/fake.rs");
    assert!(v.iter().any(|x| x.rule == Rule::Panic), "{v:?}");
}

#[test]
fn wildcard_fixture_fails_the_tree() {
    let v = plant_and_lint("wildcard_match.rs.bad", "crates/wire/src/fake.rs");
    assert!(v.iter().any(|x| x.rule == Rule::Wildcard), "{v:?}");
}

#[test]
fn missing_header_fixture_fails_the_tree() {
    let v = plant_and_lint("missing_header.rs.bad", "crates/fake/src/lib.rs");
    assert_eq!(v.iter().filter(|x| x.rule == Rule::Header).count(), 2, "{v:?}");
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

#[test]
fn unsafe_fixture_fails_the_tree() {
    let v = plant_and_lint("unsafe_block.rs.bad", "crates/kvs/tests/fake.rs");
    assert_eq!(v.iter().filter(|x| x.rule == Rule::Unsafe).count(), 1, "{v:?}");
}

#[test]
fn unsafe_home_fixture_fails_the_header_rule() {
    // Two missing deny attributes and one `unsafe` item with no SAFETY
    // argument; the sys crate root owes no `forbid(unsafe_code)`.
    let v = plant_and_lint("unsafe_home.rs.bad", "crates/sys/src/lib.rs");
    let rules: Vec<Rule> = v.iter().map(|x| x.rule).collect();
    assert_eq!(rules, [Rule::Header; 3], "{v:?}");
    assert_eq!(v[2].line, 11, "{v:?}");
}
