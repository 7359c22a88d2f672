//! Offline static-conformance linter for the workspace.
//!
//! `cargo run -p flux-lint` walks `crates/`, `examples/` and `tests/`
//! and enforces the two line rules described in DESIGN.md §12, each a
//! fact about this workspace that no compiler knows:
//!
//! 1. **topic-literal** — no topic-pattern string literal (a `"` followed
//!    by a registered service name and a `.`) may appear outside
//!    `crates/proto` and integration-test directories. All protocol
//!    routing goes through the [`flux_proto`] registry.
//! 2. **block** — the crates the sans-io broker core is built from, and
//!    flux-rt's sans-io files (`SANS_IO`), never name a thread, a channel,
//!    a lock or a socket (`BLOCKING`). What they can call lies inside the
//!    same scope, so nothing they reach can block either; the rest of
//!    `flux-rt` and the CLI are the I/O tier, outside it.
//!
//! What the compiler can check, it does (DESIGN.md §12): every crate
//! inherits `unsafe_code = "forbid"` and `missing_docs = "deny"` from the
//! workspace manifest, `crates/sys` requires a `// SAFETY:` comment on
//! each `unsafe` block and `unsafe impl` (`clippy::undocumented_unsafe_blocks`),
//! and the non-test code of `broker`, `rt`, `kvs` and `wire` denies the
//! panic family (`clippy::unwrap_used`, `expect_used`, `panic`, ...) and
//! `wire` wildcard arms over enums, each waiver a `#[expect]` that fails
//! clippy once it stops waiving.
//!
//! Invariants that used to be read here are executed now: every request
//! is answered (`flux_broker::Handled`, a type), every KVS RPC is
//! registered and retried (`flux-kvs`'s `inflight` table), every refusal
//! is declared (`Core::refuse` plus `flux-modules`' `refusals`
//! test), seeded records are process-independent (`flux-mc`'s
//! `determinism` test), and the per-message paths allocate what their
//! budgets say (`flux-rt`'s `alloc_budget` test).
//!
//! Neither rule takes a waiver, and there is no suppression list. The
//! block rule reads *blanked* text (string/char/comment contents replaced
//! with spaces by [`token::blank`], so a `Mutex` in an error message
//! can't fire it); topic literals are read from raw lines. The linter has
//! no dependencies outside the workspace and never touches the network.

pub mod token;

use std::fmt;
use std::path::{Path, PathBuf};

/// Which lint rule a violation belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// A topic-pattern string literal outside the protocol registry.
    TopicLiteral,
    /// A thread, channel, lock or socket named in the sans-io core.
    Block,
}

impl Rule {
    /// The rule's name as used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::TopicLiteral => "topic-literal",
            Rule::Block => "block",
        }
    }
}

/// One finding: a rule broken at a specific file and line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.message)
    }
}

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
    let block_scope = SANS_IO.iter().any(|p| rel.starts_with(p));

    let blanked = token::blank(content);
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

    /// The crate-root headers live in the manifests now: every member but
    /// `crates/sys` (its own table) and `crates/perf` (its own attributes)
    /// inherits the workspace lints, so a new crate cannot skip them.
    #[test]
    fn every_member_inherits_the_workspace_lints() {
        for entry in std::fs::read_dir(workspace_root().join("crates")).expect("list crates") {
            let dir = entry.expect("crate dir").path();
            let name = dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
            if name != "sys" && name != "perf" {
                assert!(manifest.contains("[lints]\nworkspace = true"), "crates/{name}");
            }
        }
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
