//! Offline static-conformance linter for the workspace.
//!
//! `cargo run -p flux-lint` walks `crates/` and enforces the protocol
//! and panic-hygiene rules described in DESIGN.md §12:
//!
//! 1. **topic-literal** — no topic-pattern string literal (a `"` followed
//!    by a registered service name and a `.`) may appear outside
//!    `crates/proto` and integration-test directories. All protocol
//!    routing goes through the [`flux_proto`] registry.
//! 2. **panic** — no `unwrap()` / `expect()` / `panic!()` family call in
//!    the non-test code of the `broker`, `rt`, `kvs` and `wire` crates,
//!    unless justified by a `// flux-lint: allow(panic)` annotation.
//! 3. **wildcard** — no `_ =>` match arm in the non-test code of the
//!    wire crate (protocol decoders must enumerate their domain), unless
//!    justified by `// flux-lint: allow(wildcard)`.
//! 4. **header** — every crate root carries `#![forbid(unsafe_code)]`,
//!    and every library root additionally `#![deny(missing_docs)]`.
//! 5. **block** — blocking-call taint: sleeps, deadline-free channel
//!    receives, thread joins, un-deadlined socket reads, and locks held
//!    across I/O may not appear in (or be reached from) the sans-io
//!    broker core without a justified `allow(block)` waiver. See
//!    [`block`].
//! 6. **hotalloc** — allocation accounting: per-message allocations
//!    (`Vec::new`, `clone`, `format!`, fresh `collect`, …) may not
//!    appear in the designated hot paths (framing chain, sim dispatch,
//!    kvs batch apply, broker route) without a justified
//!    `allow(hotalloc)` waiver. See [`hotalloc`].
//!
//! Two invariants that used to be rules here are types now, checked by
//! rustc: every request is answered on every path
//! (`flux_broker::Handled`, the return type of a request handler), and
//! every RPC the KVS sends is registered, its answer classified and the
//! request retried (`flux-kvs`'s `inflight` table). A third rule,
//! lock-order, is gone because its subject is: the workspace has taken
//! no lock since the reactor replaced the thread-per-link runtime, and
//! **block**'s lock-held-across-I/O shape is the tripwire should one
//! come back. A fourth, which held handlers to their `flux-proto`
//! `declared_errors` by reading their source, is a run-time check now,
//! in the one broker function every error response passes through, and
//! a table test in `flux-modules` that drives every declared refusal. A
//! fifth, which read the deterministic crates for hash iteration, clocks,
//! thread ids and address ordering, is executed too: `flux-mc`'s
//! `determinism` test runs every seeded record in separate processes
//! and requires them byte-identical.
//!
//! A violation is fixed, or waived at its site with a justified
//! `// flux-lint: allow(...)` comment; there is no out-of-line
//! suppression list.
//!
//! Rules 1–4 are line rules over *blanked* text (string/char/comment
//! contents replaced with spaces by [`token::blank`], so a `panic!(`
//! in an error message can't fire the panic rule). Rules 5–6 are
//! semantic passes over an AST-lite statement model, sharing one
//! [`analysis::ParsedFile`] cache per tree walk. The linter has no
//! dependencies outside the workspace and never touches the network.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analysis;
mod block;
mod hotalloc;
mod selfmutate;
pub mod token;

use analysis::ParsedFile;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub use selfmutate::self_mutate;

/// Which lint rule a violation belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// A topic-pattern string literal outside the protocol registry.
    TopicLiteral,
    /// An unjustified panic-family call in a panic-free crate.
    Panic,
    /// An unjustified `_ =>` arm in a protocol decoder crate.
    Wildcard,
    /// A crate root missing the agreed lint header.
    Header,
    /// A blocking call or lock-held-across-I/O inside sans-io code.
    Block,
    /// A per-message allocation inside a designated hot path.
    HotAlloc,
}

impl Rule {
    /// The rule's name as used in waivers and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::TopicLiteral => "topic-literal",
            Rule::Panic => "panic",
            Rule::Wildcard => "wildcard",
            Rule::Header => "header",
            Rule::Block => "block",
            Rule::HotAlloc => "hotalloc",
        }
    }

    /// The pass that produces this rule, for machine-readable output:
    /// `line` for the token rules, the pass name for semantic passes.
    pub fn pass(self) -> &'static str {
        match self {
            Rule::TopicLiteral | Rule::Panic | Rule::Wildcard | Rule::Header => "line",
            Rule::Block => "block",
            Rule::HotAlloc => "hotalloc",
        }
    }
}

/// One finding: a rule broken at a specific file and line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule.name(), self.message)
        } else {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
        }
    }
}

/// Crates whose non-test code must be panic-free (rule 2).
const PANIC_FREE: &[&str] =
    &["crates/broker/src/", "crates/rt/src/", "crates/kvs/src/", "crates/wire/src/"];

/// Crates whose non-test matches may not use `_ =>` (rule 3).
const NO_WILDCARD: &[&str] = &["crates/wire/src/"];

/// Tokens that abort the process when reached.
const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// How many lines an `// flux-lint: allow(...)` annotation reaches
/// forward. Keeps a waiver from silently covering unrelated code.
const ALLOW_REACH: usize = 10;

/// True if the topic-literal rule applies to this file at all.
fn topic_rule_applies(rel: &str) -> bool {
    !rel.starts_with("crates/proto/")
        && !rel.starts_with("crates/flux-lint/")
        && !rel.contains("/tests/")
}

/// Finds `"<service>.` occurrences in one line of source text. Mirrors
/// the repository's conformance grep: a plain text scan, comments and
/// test modules included (in-source tests must use neutral names).
fn line_has_topic_literal(line: &str, services: &[&str]) -> Option<&'static str> {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' {
            continue;
        }
        let rest = &line[i + 1..];
        for svc in flux_proto::Service::ALL {
            let name = svc.name();
            if services.contains(&name)
                && rest.len() > name.len()
                && rest.starts_with(name)
                && rest.as_bytes()[name.len()] == b'.'
            {
                return Some(name);
            }
        }
    }
    None
}

/// Per-line scan state for the panic and wildcard rules: tracks
/// `#[cfg(test)]` regions and pending `allow` waivers.
struct ScanState {
    in_test: bool,
    test_depth: i32,
    test_entered: bool,
    allow_panic: Option<usize>,
    allow_wildcard: Option<usize>,
}

impl ScanState {
    fn new() -> ScanState {
        ScanState {
            in_test: false,
            test_depth: 0,
            test_entered: false,
            allow_panic: None,
            allow_wildcard: None,
        }
    }

    /// Updates test-region tracking for `line`; returns true while the
    /// line is inside (or opening) a `#[cfg(test)]` region.
    fn track_test_region(&mut self, line: &str) -> bool {
        if !self.in_test && line.contains("#[cfg(test)]") {
            self.in_test = true;
            self.test_depth = 0;
            self.test_entered = false;
        }
        if !self.in_test {
            return false;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    self.test_depth += 1;
                    self.test_entered = true;
                }
                '}' => self.test_depth -= 1,
                _ => {}
            }
        }
        if self.test_entered && self.test_depth <= 0 {
            self.in_test = false; // region closed on this line
        } else if !self.test_entered && line.trim_end().ends_with(';') {
            self.in_test = false; // `#[cfg(test)] mod x;` — out-of-line module
        }
        true
    }
}

/// Lints one file's content as if it lived at workspace-relative path
/// `rel`: the token rules and header checks only (no parsing needed).
/// Tests feed it fixture content directly; the semantic passes need the
/// full tree — see [`lint_sources`].
pub fn lint_file(rel: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let services: Vec<&str> = flux_proto::Service::ALL.iter().map(|s| s.name()).collect();
    let topic_scope = topic_rule_applies(rel);
    let panic_scope =
        PANIC_FREE.iter().any(|p| rel.starts_with(p)) && !rel.ends_with("proptests.rs");
    let wildcard_scope =
        NO_WILDCARD.iter().any(|p| rel.starts_with(p)) && !rel.ends_with("proptests.rs");

    // Token rules run over blanked text (strings and comments can't
    // fire them); waivers and topic literals are read from raw lines.
    let blanked = token::blank(content);
    let mut st = ScanState::new();
    for (idx, (line, bline)) in content.lines().zip(blanked.lines()).enumerate() {
        let lineno = idx + 1;
        if topic_scope {
            if let Some(svc) = line_has_topic_literal(line, &services) {
                out.push(Violation {
                    file: rel.to_owned(),
                    line: lineno,
                    rule: Rule::TopicLiteral,
                    message: format!(
                        "string literal for service `{svc}` — route through flux-proto instead"
                    ),
                });
            }
        }
        if !(panic_scope || wildcard_scope) {
            continue;
        }
        let in_test = st.track_test_region(bline);
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            if line.contains("flux-lint: allow(panic)") {
                st.allow_panic = Some(lineno);
            }
            if line.contains("flux-lint: allow(wildcard)") {
                st.allow_wildcard = Some(lineno);
            }
            continue;
        }
        if in_test {
            continue;
        }
        if panic_scope {
            if let Some(tok) = PANIC_TOKENS.iter().find(|t| bline.contains(*t)) {
                if line.contains("flux-lint: allow(panic)") {
                    // waived inline
                } else if st.allow_panic.is_some_and(|l| lineno - l <= ALLOW_REACH) {
                    st.allow_panic = None;
                } else {
                    out.push(Violation {
                        file: rel.to_owned(),
                        line: lineno,
                        rule: Rule::Panic,
                        message: format!(
                            "`{}` in panic-free code — return an error or justify with \
                             `// flux-lint: allow(panic)`",
                            tok.trim_start_matches('.')
                        ),
                    });
                }
            }
        }
        if wildcard_scope && bline.contains("_ =>") {
            if line.contains("flux-lint: allow(wildcard)") {
                // waived inline
            } else if st.allow_wildcard.is_some_and(|l| lineno - l <= ALLOW_REACH) {
                st.allow_wildcard = None;
            } else {
                out.push(Violation {
                    file: rel.to_owned(),
                    line: lineno,
                    rule: Rule::Wildcard,
                    message: "`_ =>` arm in a protocol decoder — enumerate the domain or \
                              justify with `// flux-lint: allow(wildcard)`"
                        .to_owned(),
                });
            }
        }
    }

    out.extend(check_headers(rel, content));
    out
}

/// The outcome of one whole-workspace lint: the surviving violations
/// plus wall time per pass (for `flux-lint --timings`).
pub struct LintReport {
    /// Every violation found, sorted by file and line.
    pub violations: Vec<Violation>,
    /// `(pass name, wall time)` in execution order.
    pub timings: Vec<(&'static str, Duration)>,
}

/// Lints a whole workspace already read into memory as `(relative
/// path, raw source)` pairs. All passes share one parsed-file cache:
/// every source file is blanked, test-stripped, and function-indexed
/// exactly once, then the per-file rules and the two semantic passes
/// run over the cache. This is the engine behind [`lint_tree`]
/// and the `--self-mutate` smoke check.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    let mut timings = Vec::new();
    let mut violations = Vec::new();

    let t0 = std::time::Instant::now();
    let parsed: Vec<ParsedFile> = files
        .iter()
        .filter(|(rel, _)| rel.contains("/src/"))
        .map(|(rel, content)| ParsedFile::parse(rel, content))
        .collect();
    timings.push(("parse", t0.elapsed()));

    let t = std::time::Instant::now();
    for (rel, content) in files {
        violations.extend(lint_file(rel, content));
    }
    timings.push(("tokens+headers", t.elapsed()));

    let t = std::time::Instant::now();
    violations.extend(block::check_block(&parsed));
    timings.push(("block", t.elapsed()));

    let t = std::time::Instant::now();
    violations.extend(hotalloc::check_hotalloc(&parsed));
    timings.push(("hotalloc", t.elapsed()));

    violations.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    LintReport { violations, timings }
}

/// Renders a report as the `flux-lint/v1` machine-readable document
/// (the `--json` output). One object per violation carrying the pass,
/// rule, file, line, waiver status, and message, plus per-pass wall
/// times in milliseconds. Hand-rolled: the schema is flat scalars, so
/// no JSON dependency is warranted.
pub fn to_json(report: &LintReport) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"schema\": \"flux-lint/v1\",\n");
    out.push_str(&format!("  \"clean\": {},\n", report.violations.is_empty()));
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        // A justified waiver never reaches the report, so the only
        // waiver state a violation can carry is "unjustified" (a bare
        // `allow(..)` demanding its reason).
        let waiver =
            if v.message.contains("without a justification") { "unjustified" } else { "none" };
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"pass\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"waiver\": \"{waiver}\", \"message\": \"{}\"}}",
            v.rule.pass(),
            v.rule.name(),
            esc(&v.file),
            v.line,
            esc(&v.message),
        ));
    }
    out.push_str(if report.violations.is_empty() { "],\n" } else { "\n  ],\n" });
    out.push_str("  \"timings\": [");
    for (i, (pass, took)) in report.timings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"pass\": \"{pass}\", \"ms\": {:.3}}}",
            took.as_secs_f64() * 1e3
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Rule 4: crate roots must carry the agreed lint headers.
fn check_headers(rel: &str, content: &str) -> Vec<Violation> {
    let is_lib = rel.ends_with("/src/lib.rs");
    let is_bin = rel.ends_with("/src/main.rs") || rel.contains("/src/bin/");
    let mut out = Vec::new();
    if !(is_lib || is_bin) {
        return out;
    }
    if !content.contains("#![forbid(unsafe_code)]") {
        out.push(Violation {
            file: rel.to_owned(),
            line: 0,
            rule: Rule::Header,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        });
    }
    if is_lib && !content.contains("#![deny(missing_docs)]") {
        out.push(Violation {
            file: rel.to_owned(),
            line: 0,
            rule: Rule::Header,
            message: "library root is missing `#![deny(missing_docs)]`".to_owned(),
        });
    }
    out
}

/// Recursively collects `.rs` files under `dir`, skipping fixture and
/// build-output directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads the workspace rooted at `root` into `(relative path, raw
/// source)` pairs, sorted by path.
pub fn read_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }
    Ok(sources)
}

/// Lints the whole workspace rooted at `root` (the directory holding
/// `crates/`). Returns the full report including per-pass timings.
pub fn lint_tree_report(root: &Path) -> std::io::Result<LintReport> {
    Ok(lint_sources(&read_sources(root)?))
}

/// Like [`lint_tree_report`], returning the surviving violations only.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(lint_tree_report(root)?.violations)
}

/// The workspace root this linter was built in, for the self-check test
/// and the default `main` invocation.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPIC_FIXTURE: &str = include_str!("../fixtures/topic_literal.rs.bad");
    const PANIC_FIXTURE: &str = include_str!("../fixtures/panic_unwrap.rs.bad");
    const WILDCARD_FIXTURE: &str = include_str!("../fixtures/wildcard_match.rs.bad");
    const HEADER_FIXTURE: &str = include_str!("../fixtures/missing_header.rs.bad");

    fn rules(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn topic_literal_fixture_fires() {
        let v = lint_file("crates/modules/src/fake.rs", TOPIC_FIXTURE);
        assert!(rules(&v).contains(&Rule::TopicLiteral), "{v:?}");
        // Neutral service names and bare (dot-free) names never fire.
        let clean = lint_file("crates/modules/src/fake.rs", "let t = (\"svc.put\", \"hb\");\n");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn topic_literal_exempt_in_proto_and_tests() {
        for rel in
            ["crates/proto/src/lib.rs", "crates/kvs/tests/it.rs", "crates/flux-lint/src/lib.rs"]
        {
            let v = lint_file(rel, TOPIC_FIXTURE);
            assert!(!rules(&v).contains(&Rule::TopicLiteral), "{rel}: {v:?}");
        }
    }

    #[test]
    fn panic_fixture_fires_only_outside_tests_and_waivers() {
        let v = lint_file("crates/kvs/src/fake.rs", PANIC_FIXTURE);
        let hits: Vec<_> = v.iter().filter(|x| x.rule == Rule::Panic).collect();
        // The fixture has exactly one unjustified site; its cfg(test)
        // unwrap and its annotated expect must not fire.
        assert_eq!(hits.len(), 1, "{v:?}");
        assert!(hits[0].message.contains("unwrap"), "{v:?}");
    }

    #[test]
    fn panic_rule_scoped_to_panic_free_crates() {
        let v = lint_file("crates/modules/src/fake.rs", PANIC_FIXTURE);
        assert!(!rules(&v).contains(&Rule::Panic), "{v:?}");
    }

    #[test]
    fn wildcard_fixture_fires_in_wire_only() {
        let v = lint_file("crates/wire/src/fake.rs", WILDCARD_FIXTURE);
        let hits: Vec<_> = v.iter().filter(|x| x.rule == Rule::Wildcard).collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        let v = lint_file("crates/broker/src/fake.rs", WILDCARD_FIXTURE);
        assert!(!rules(&v).contains(&Rule::Wildcard), "{v:?}");
    }

    #[test]
    fn header_fixture_fires_for_lib_roots() {
        let v = lint_file("crates/fake/src/lib.rs", HEADER_FIXTURE);
        assert_eq!(v.iter().filter(|x| x.rule == Rule::Header).count(), 2, "{v:?}");
        // A bin root only needs forbid(unsafe_code).
        let v = lint_file("crates/fake/src/main.rs", HEADER_FIXTURE);
        assert_eq!(v.iter().filter(|x| x.rule == Rule::Header).count(), 1, "{v:?}");
        // Non-root files carry no header obligation.
        let v = lint_file("crates/fake/src/other.rs", HEADER_FIXTURE);
        assert_eq!(v.iter().filter(|x| x.rule == Rule::Header).count(), 0, "{v:?}");
    }

    #[test]
    fn json_report_matches_the_v1_schema() {
        let report = LintReport {
            violations: vec![
                Violation {
                    file: "crates/sim/src/demo.rs".to_owned(),
                    line: 7,
                    rule: Rule::Block,
                    message: "blocking sleep (`thread::sleep`) — \"bad\"\nsecond line".to_owned(),
                },
                Violation {
                    file: "crates/wire/src/codec.rs".to_owned(),
                    line: 12,
                    rule: Rule::HotAlloc,
                    message: "`allow(hotalloc)` without a justification".to_owned(),
                },
            ],
            timings: vec![("parse", Duration::from_micros(1500)), ("block", Duration::ZERO)],
        };
        let doc = to_json(&report);
        assert!(doc.contains("\"schema\": \"flux-lint/v1\""), "{doc}");
        assert!(doc.contains("\"clean\": false"), "{doc}");
        // Every violation carries pass, rule, file, line, waiver, message.
        assert!(
            doc.contains(
                "\"pass\": \"block\", \"rule\": \"block\", \"file\": \"crates/sim/src/demo.rs\", \
                 \"line\": 7, \"waiver\": \"none\""
            ),
            "{doc}"
        );
        assert!(doc.contains("\"waiver\": \"unjustified\""), "{doc}");
        // Quotes and newlines in messages are escaped, not emitted raw.
        assert!(doc.contains("\\\"bad\\\"\\nsecond line"), "{doc}");
        assert!(doc.contains("{\"pass\": \"parse\", \"ms\": 1.500}"), "{doc}");
        // An empty report is clean with an empty violations array.
        let clean = to_json(&LintReport { violations: vec![], timings: vec![] });
        assert!(clean.contains("\"clean\": true"), "{clean}");
        assert!(clean.contains("\"violations\": []"), "{clean}");
    }

    #[test]
    fn live_tree_is_clean() {
        let v = lint_tree(&workspace_root()).expect("walk workspace");
        assert!(v.is_empty(), "live tree has lint violations:\n{}", {
            let mut s = String::new();
            for x in &v {
                s.push_str(&format!("  {x}\n"));
            }
            s
        });
    }
}
