//! Offline static-conformance linter for the workspace.
//!
//! `cargo run -p flux-lint` walks `crates/`, `examples/` and `tests/`
//! and enforces the line rules described in DESIGN.md §12:
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
//!    and every library root additionally `#![deny(missing_docs)]`. The
//!    one exception is `crates/sys/src/lib.rs`, the audited `unsafe`
//!    crate: it carries `#![deny(unsafe_op_in_unsafe_fn)]` and
//!    `#![deny(missing_docs)]` instead, and a `// SAFETY:` comment
//!    directly above every line that says `unsafe`.
//! 5. **block** — the crates the sans-io broker core is built from, and
//!    flux-rt's sans-io files (`SANS_IO`), never name a thread, a channel,
//!    a lock or a socket (`BLOCKING`). What they can call lies inside the
//!    same scope, so nothing they reach can block either; the rest of
//!    `flux-rt` and the CLI are the I/O tier, outside it.
//! 6. **unsafe** — the `unsafe` keyword appears in no `.rs` file but
//!    `crates/sys/src/lib.rs`, tests and examples included.
//!
//! Invariants that used to be read here are executed now: every request
//! is answered (`flux_broker::Handled`, a type), every KVS RPC is
//! registered and retried (`flux-kvs`'s `inflight` table), every refusal
//! is declared (`Core::respond_err` plus `flux-modules`' `refusals`
//! test), seeded records are process-independent (`flux-mc`'s
//! `determinism` test), and the per-message paths allocate what their
//! budgets say (`flux-rt`'s `alloc_budget` test).
//!
//! A panic or wildcard finding is fixed, or waived at its site with a
//! justified `// flux-lint: allow(...)` comment; the other rules have no
//! waiver, and there is no out-of-line suppression list.
//!
//! Every rule reads *blanked* text (string/char/comment contents replaced
//! with spaces by [`token::blank`], so a `panic!(` in an error message
//! can't fire the panic rule); waivers, `// SAFETY:` arguments and topic
//! literals are read from raw lines. The linter has no dependencies outside the workspace and
//! never touches the network.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod token;

use std::fmt;
use std::path::{Path, PathBuf};

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
    /// A thread, channel, lock or socket named in the sans-io core.
    Block,
    /// The `unsafe` keyword outside the audited `unsafe` crate.
    Unsafe,
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
            Rule::Unsafe => "unsafe",
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

/// The sans-io scope of the block rule: the `src/` of every crate the
/// broker core is built from, and flux-rt's sans-io files: the socket
/// link's protocol core, the script interpreter, the broker host, the
/// simulator session, and fault injection and its chaos checks.
const SANS_IO: &[&str] = &[
    "crates/value/src/",
    "crates/hash/src/",
    "crates/wire/src/",
    "crates/proto/src/",
    "crates/topo/src/",
    "crates/sim/src/",
    "crates/broker/src/",
    "crates/kvs/src/",
    "crates/modules/src/",
    "crates/core/src/",
    "crates/pmi/src/",
    "crates/flux-mc/src/",
    "crates/kap/src/",
    "crates/rt/src/link.rs",
    "crates/rt/src/script.rs",
    "crates/rt/src/host.rs",
    "crates/rt/src/sim.rs",
    "crates/rt/src/faults.rs",
    "crates/rt/src/chaos.rs",
];

/// What the block rule rejects in the sans-io scope: threads, sleeps,
/// blocking receives and joins, channels, locks, and sockets.
const BLOCKING: &[&str] = &[
    "std::thread",
    "thread::sleep",
    ".recv()",
    ".join()",
    "mpsc",
    "Mutex",
    "RwLock",
    "Condvar",
    ".lock()",
    "std::net",
    "TcpStream",
    "TcpListener",
];

/// The one file allowed `unsafe` (DESIGN.md §6).
const UNSAFE_HOME: &str = "crates/sys/src/lib.rs";

/// How many lines an `// flux-lint: allow(...)` annotation reaches
/// forward. Keeps a waiver from silently covering unrelated code.
const ALLOW_REACH: usize = 10;

/// True if the topic-literal rule applies to this file at all.
fn topic_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/")
        && !rel.starts_with("crates/proto/")
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

/// True if `line` holds `word` as a whole identifier (so `unsafe` fires
/// and `unsafe_code` does not).
fn has_keyword(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(ident)
            && !line[i + word.len()..].chars().next().is_some_and(ident)
    })
}

/// Lints one file's content as if it lived at workspace-relative path
/// `rel`. Every rule is per file, so tests feed fixture content straight
/// in; [`lint_tree`] runs it over the workspace.
pub fn lint_file(rel: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut flag = |line: usize, rule: Rule, message: String| {
        out.push(Violation { file: rel.to_owned(), line, rule, message });
    };
    let services: Vec<&str> = flux_proto::Service::ALL.iter().map(|s| s.name()).collect();
    let topic_scope = topic_rule_applies(rel);
    let panic_scope =
        PANIC_FREE.iter().any(|p| rel.starts_with(p)) && !rel.ends_with("proptests.rs");
    let wildcard_scope =
        NO_WILDCARD.iter().any(|p| rel.starts_with(p)) && !rel.ends_with("proptests.rs");
    let block_scope = SANS_IO.iter().any(|p| rel.starts_with(p));
    let unsafe_scope = rel != UNSAFE_HOME;

    let blanked = token::blank(content);
    let mut st = ScanState::new();
    for (idx, (line, bline)) in content.lines().zip(blanked.lines()).enumerate() {
        let lineno = idx + 1;
        if topic_scope {
            if let Some(svc) = line_has_topic_literal(line, &services) {
                flag(
                    lineno,
                    Rule::TopicLiteral,
                    format!(
                        "string literal for service `{svc}` — route through flux-proto instead"
                    ),
                );
            }
        }
        if block_scope {
            if let Some(tok) = BLOCKING.iter().find(|t| bline.contains(*t)) {
                flag(
                    lineno,
                    Rule::Block,
                    format!(
                        "`{tok}` in sans-io code — threads, channels, locks and sockets \
                         belong to the I/O tier (`flux-rt`'s drivers)"
                    ),
                );
            }
        }
        if unsafe_scope && has_keyword(bline, "unsafe") {
            flag(
                lineno,
                Rule::Unsafe,
                format!("`unsafe` outside `{UNSAFE_HOME}`, the one audited unsafe crate"),
            );
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
                    flag(
                        lineno,
                        Rule::Panic,
                        format!(
                            "`{}` in panic-free code — return an error or justify with \
                             `// flux-lint: allow(panic)`",
                            tok.trim_start_matches('.')
                        ),
                    );
                }
            }
        }
        if wildcard_scope && bline.contains("_ =>") {
            if line.contains("flux-lint: allow(wildcard)") {
                // waived inline
            } else if st.allow_wildcard.is_some_and(|l| lineno - l <= ALLOW_REACH) {
                st.allow_wildcard = None;
            } else {
                flag(
                    lineno,
                    Rule::Wildcard,
                    "`_ =>` arm in a protocol decoder — enumerate the domain or justify with \
                     `// flux-lint: allow(wildcard)`"
                        .to_owned(),
                );
            }
        }
    }

    out.extend(check_headers(rel, content, &blanked));
    out
}

/// Renders violations as the `flux-lint/v2` machine-readable document
/// (the `--json` output): one object per violation carrying its rule,
/// file, line and message. Hand-rolled: the schema is flat scalars, so
/// no JSON dependency is warranted.
pub fn to_json(violations: &[Violation]) -> String {
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
    let mut out = String::from("{\n  \"schema\": \"flux-lint/v2\",\n");
    out.push_str(&format!("  \"clean\": {},\n", violations.is_empty()));
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            v.rule.name(),
            esc(&v.file),
            v.line,
            esc(&v.message),
        ));
    }
    out.push_str(if violations.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
    out
}

/// Rule 4: crate roots must carry the agreed lint headers; the audited
/// `unsafe` crate carries its own, and a `// SAFETY:` argument for every
/// line that says `unsafe`.
fn check_headers(rel: &str, content: &str, blanked: &str) -> Vec<Violation> {
    let is_lib = rel.ends_with("/src/lib.rs");
    let is_bin = rel.ends_with("/src/main.rs") || rel.contains("/src/bin/");
    let required: &[&str] = if rel == UNSAFE_HOME {
        &["#![deny(unsafe_op_in_unsafe_fn)]", "#![deny(missing_docs)]"]
    } else if is_lib {
        &["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"]
    } else if is_bin {
        &["#![forbid(unsafe_code)]"]
    } else {
        &[]
    };
    let mut out: Vec<Violation> = required
        .iter()
        .filter(|attr| !content.contains(**attr))
        .map(|attr| Violation {
            file: rel.to_owned(),
            line: 0,
            rule: Rule::Header,
            message: format!("crate root is missing `{attr}`"),
        })
        .collect();
    if rel == UNSAFE_HOME {
        let raw: Vec<&str> = content.lines().collect();
        for (idx, bline) in blanked.lines().enumerate() {
            if has_keyword(bline, "unsafe") && !has_safety_comment(&raw, idx) {
                out.push(Violation {
                    file: rel.to_owned(),
                    line: idx + 1,
                    rule: Rule::Header,
                    message: "`unsafe` with no `// SAFETY:` comment directly above it".to_owned(),
                });
            }
        }
    }
    out
}

/// True if line `idx` or the comment and attribute lines directly above
/// it carry a `// SAFETY:` argument.
fn has_safety_comment(raw: &[&str], idx: usize) -> bool {
    raw[idx].contains("// SAFETY:")
        || raw[..idx]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//") || l.starts_with("#["))
            .any(|l| l.starts_with("// SAFETY:"))
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

/// Lints every `.rs` file under `crates/`, `examples/` and `tests/` of
/// the workspace rooted at `root`. Violations come sorted by file and
/// line.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        violations.extend(lint_file(&rel, &std::fs::read_to_string(path)?));
    }
    violations.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(violations)
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
    fn block_rule_covers_the_sans_io_core_only() {
        let src = "fn pump(rx: &Receiver<u8>) -> u8 {\n    rx.recv().unwrap_or(0)\n}\n";
        let sans_io = [
            "crates/sim/src/fake.rs",
            "crates/rt/src/link.rs",
            "crates/rt/src/script.rs",
            "crates/rt/src/host.rs",
            "crates/rt/src/sim.rs",
            "crates/rt/src/faults.rs",
            "crates/rt/src/chaos.rs",
        ];
        for rel in sans_io {
            let v = lint_file(rel, src);
            assert_eq!(rules(&v), [Rule::Block], "{rel}: {v:?}");
            assert!(v[0].message.contains(".recv()"), "{v:?}");
        }
        let socket = "fn dial(addr: SocketAddr) -> Option<TcpStream> {\n    None\n}\n";
        assert_eq!(rules(&lint_file("crates/rt/src/link.rs", socket)), [Rule::Block]);
        // The rest of the I/O tier and test directories are outside the scope.
        let io = [
            "crates/rt/src/fake.rs",
            "crates/rt/src/transport.rs",
            "crates/rt/src/live.rs",
            "crates/rt/src/reactor.rs",
            "crates/rt/src/tcp.rs",
            "crates/sim/tests/fake.rs",
        ];
        for rel in io {
            assert!(lint_file(rel, src).is_empty(), "{rel}");
        }
        // Strings and comments never fire.
        let quiet = "let s = \"a Mutex\"; // std::thread::sleep\n";
        assert!(lint_file("crates/sim/src/fake.rs", quiet).is_empty());
    }

    #[test]
    fn unsafe_rule_fires_everywhere_but_the_sys_crate_root() {
        let src = "fn f() {\n    unsafe { g() }\n}\n";
        for rel in
            ["crates/wire/src/fake.rs", "crates/rt/tests/fake.rs", "examples/fake.rs", "tests/x.rs"]
        {
            let v = lint_file(rel, src);
            assert_eq!(rules(&v), [Rule::Unsafe], "{rel}: {v:?}");
        }
        // Lint names and the word in comments or strings are not the keyword.
        let quiet = "#![forbid(unsafe_code)]\n// unsafe\nlet s = \"unsafe\";\n";
        assert!(lint_file("crates/wire/src/fake.rs", quiet).is_empty());
        // The sys crate root may say it, each time under a SAFETY argument.
        let sys = "#![deny(unsafe_op_in_unsafe_fn)]\n#![deny(missing_docs)]\n\
                   // SAFETY: forwards to System.\nunsafe impl A for B {}\nunsafe fn bare() {}\n";
        let v = lint_file("crates/sys/src/lib.rs", sys);
        assert_eq!(rules(&v), [Rule::Header], "{v:?}");
        assert_eq!(v[0].line, 5, "{v:?}");
    }

    #[test]
    fn json_report_matches_the_v2_schema() {
        let violations = [
            Violation {
                file: "crates/sim/src/demo.rs".to_owned(),
                line: 7,
                rule: Rule::Block,
                message: "`thread::sleep` — \"bad\"\nsecond line".to_owned(),
            },
            Violation {
                file: "crates/wire/src/codec.rs".to_owned(),
                line: 12,
                rule: Rule::Unsafe,
                message: "`unsafe` outside the sys crate".to_owned(),
            },
        ];
        let doc = to_json(&violations);
        assert!(doc.contains("\"schema\": \"flux-lint/v2\""), "{doc}");
        assert!(doc.contains("\"clean\": false"), "{doc}");
        // Every violation carries rule, file, line and message.
        assert!(
            doc.contains(
                "{\"rule\": \"block\", \"file\": \"crates/sim/src/demo.rs\", \"line\": 7, \
                 \"message\": "
            ),
            "{doc}"
        );
        assert!(doc.contains("\"rule\": \"unsafe\""), "{doc}");
        // Quotes and newlines in messages are escaped, not emitted raw.
        assert!(doc.contains("\\\"bad\\\"\\nsecond line"), "{doc}");
        // An empty report is clean with an empty violations array.
        let clean = to_json(&[]);
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
