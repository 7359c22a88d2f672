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
    let scratch: PathBuf = std::env::temp_dir()
        .join(format!("flux-lint-e2e-{}-{}", std::process::id(), fixture.replace('.', "_")));
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

/// Count of one rule's violations when `fixture` is planted at `rel`.
fn rule_count(fixture: &str, rel: &str, rule: Rule) -> usize {
    plant_and_lint(fixture, rel).iter().filter(|x| x.rule == rule).count()
}

#[test]
fn block_bad_fixture_fails_the_tree() {
    // Sleep, bare recv, thread join, lock-across-write, bare waiver,
    // and an un-deadlined socket read: six distinct blocking shapes.
    let n = rule_count("block.rs.bad", "crates/sim/src/fake.rs", Rule::Block);
    assert_eq!(n, 6, "expected all six seeded blocking shapes to fire");
}

#[test]
fn block_good_fixture_is_clean() {
    let n = rule_count("block.rs.good", "crates/sim/src/fake.rs", Rule::Block);
    assert_eq!(n, 0, "deadline-driven/waived forms must stay silent");
}

#[test]
fn hotalloc_bad_fixture_fails_the_tree() {
    // Fresh Vec, format!, bare waiver, fresh collect, and a transitive
    // to_vec in a helper: five distinct per-message allocations.
    let n = rule_count("hotalloc.rs.bad", "crates/wire/src/codec.rs", Rule::HotAlloc);
    assert_eq!(n, 5, "expected all five seeded hot-path allocations to fire");
}

#[test]
fn hotalloc_good_fixture_is_clean() {
    let n =
        rule_count("hotalloc.rs.good", "crates/wire/src/codec.rs", Rule::HotAlloc);
    assert_eq!(n, 0, "pre-reserved/amortized/waived shapes must stay silent");
}
