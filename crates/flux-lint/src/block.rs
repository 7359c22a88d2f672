//! Blocking-call analysis (`block`).
//!
//! ROADMAP item 3 replaces `flux_rt::tcp`'s thread-per-link blocking
//! I/O with a poll-based nonblocking reactor. That migration is only
//! safe if the shared sans-io broker core is *provably* free of
//! blocking calls and locks held across I/O — a single stray
//! `thread::sleep` or un-deadlined `recv()` inside the dispatch path
//! stalls every session multiplexed onto the reactor thread. This pass
//! enforces that property statically, before the reactor lands.
//!
//! ## Condemned inside the sans-io scope
//!
//! * **sleep** — `thread::sleep` in any form.
//! * **recv** — blocking `mpsc` `recv()` with no deadline
//!   (`recv_timeout`/`try_recv` are fine: deadline-driven waiting is
//!   the sanctioned shape).
//! * **join** — `JoinHandle::join()` (the empty-parens form; `join`
//!   with arguments is slice/path joining, not a thread join).
//! * **socket-read** — `read_exact`/`read_to_end`/`read_frame*` in a
//!   function that handles a `TcpStream`/`TcpListener` without arming
//!   `set_read_timeout(Some(..))`: an un-deadlined socket read parks
//!   the thread for as long as the peer stays silent.
//! * **lock-span** — a `Mutex`/`RwLock` guard held across a statement
//!   that sends, writes, or receives (`write_frame*`, `write_all`,
//!   `read_frame*`, `read_exact`, `flush`, `.send(`, `.recv`): the
//!   guard serializes all peers behind one I/O call, and under the
//!   reactor it would be held across a readiness wait. Tracking is
//!   statement-granular: a guard binding (`let g = x.lock();`) is held
//!   from its statement to `drop(g)` or the end of the enclosing block;
//!   a guard temporary lives exactly its own statement.
//!
//! ## Scope
//!
//! The sans-io scope is the broker core and everything it is built
//! from: broker, kvs, modules, sim, wire, proto, flux-mc, kap — plus
//! the whole `rt` crate and the CLI as the *reactor-bound tier*. `rt`
//! hosts today's legitimately-blocking edges (tcp reader threads,
//! connect retry/backoff, script drivers); including it forces every
//! such edge to carry a justified waiver, which is exactly the
//! inventory the reactor PR will work from. Out-of-scope crates
//! (bench, core, hash, …) are still *classified* so that blocking
//! reached transitively through the per-definition call index is
//! flagged at the in-scope call site, with the provenance chain in the
//! message.
//!
//! ## Waivers
//!
//! `// flux-lint: allow(block) — <justification>` waives the source on
//! or just above the line; the justification text is mandatory — a
//! bare `allow(block)` in scope is itself a violation. Waived
//! functions are vetted boundaries and do not propagate. The canonical
//! justified entries are the thread-per-link edges the reactor
//! replaces: the tcp reader threads, connect retry/backoff, and the
//! ordered-shutdown joins.

use crate::analysis::{
    binding_of, display_key, line_of, split_stmts, waiver_status, DefIndex, ParsedFile,
};
use crate::{Rule, Violation, ALLOW_REACH};
use std::collections::{BTreeMap, BTreeSet};

/// Waiver comment token (checked on raw lines).
const WAIVER: &str = "flux-lint: allow(block)";

/// The sans-io scope (see the module docs): the broker core's crates
/// plus the reactor-bound `rt` and `cli` tiers.
const SANS_IO: &[&str] = &[
    "crates/broker/src/",
    "crates/kvs/src/",
    "crates/modules/src/",
    "crates/sim/src/",
    "crates/wire/src/",
    "crates/proto/src/",
    "crates/flux-mc/src/",
    "crates/kap/src/",
    "crates/rt/src/",
    "crates/cli/src/",
];

/// Is this file inside the sans-io scope?
fn sans_io_scope(rel: &str) -> bool {
    SANS_IO.iter().any(|p| rel.starts_with(p))
}

/// I/O tokens a held lock guard must not span: frame writes/reads,
/// raw socket writes, flushes, and channel sends/receives.
const IO_TOKENS: &[&str] = &[
    "write_frame",
    "read_frame",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".flush()",
    ".send(",
    ".recv(",
    ".recv_timeout(",
];

/// Socket-read tokens (checked only in functions that handle a TCP
/// stream without arming a read timeout).
const SOCKET_READS: &[&str] = &["read_exact(", "read_to_end(", "read_frame_into(", "read_frame("];

/// One blocking site found in a function.
#[derive(Clone, Debug)]
struct Source {
    /// 1-based line of the blocking site.
    line: usize,
    /// What fired, for diagnostics.
    what: String,
}

/// Per-function blocking classification: `Clean` / `Tainted` / `Waived`.
enum State {
    /// No unwaived blocking site; may still block via calls.
    Clean,
    /// Direct blocking site(s), none waived; carries the first.
    Tainted(Source),
    /// Every direct site carries a justified waiver: a vetted
    /// legitimately-blocking edge that does not propagate.
    Waived,
}

/// Runs the pass over the shared parsed-file cache.
pub(crate) fn check_block(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let index = DefIndex::build(files);

    // Pass 1: classify every function in the workspace and flag direct
    // blocking sites inside the sans-io scope.
    let mut state: BTreeMap<String, State> = BTreeMap::new();
    let mut site: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut def_file: BTreeMap<String, String> = BTreeMap::new();
    let mut calls: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    let mut in_scope: BTreeSet<String> = BTreeSet::new();

    for pf in files {
        let crate_name = pf.crate_name().to_owned();
        let raw_lines: Vec<&str> = pf.raw.lines().collect();
        let scoped = sans_io_scope(&pf.rel);
        for (i, f) in pf.fns.iter().enumerate() {
            let key = DefIndex::key(&crate_name, &f.name, &pf.rel, i);
            def_file.entry(key.clone()).or_insert_with(|| pf.rel.clone());
            if scoped {
                in_scope.insert(key.clone());
            }
            let body = &pf.stripped[f.body.0..f.body.1];
            // Socket-read context: the function touches a TCP endpoint
            // and never arms a read deadline.
            let touches_socket =
                f.sig.contains("TcpStream") || f.sig.contains("TcpListener")
                    || body.contains("TcpStream") || body.contains("TcpListener");
            let undeadlined = touches_socket && !body.contains("set_read_timeout(Some");

            let mut sources = Vec::new();
            let mut held: Vec<(String, usize)> = Vec::new();
            scan_block(&pf.stripped, f.body, undeadlined, &mut held, &mut sources);

            let mut live: Vec<Source> = Vec::new();
            let mut any_waived = false;
            for s in sources {
                match waiver_status(&raw_lines, s.line, WAIVER, ALLOW_REACH) {
                    Some(true) => any_waived = true,
                    Some(false) if scoped => out.push(Violation {
                        file: pf.rel.clone(),
                        line: s.line,
                        rule: Rule::Block,
                        message: format!(
                            "`allow(block)` without a justification — write \
                             `// flux-lint: allow(block) — <why this edge must block>` ({})",
                            s.what
                        ),
                    }),
                    Some(false) => any_waived = true,
                    None => live.push(s),
                }
            }
            if scoped {
                for s in &live {
                    out.push(Violation {
                        file: pf.rel.clone(),
                        line: s.line,
                        rule: Rule::Block,
                        message: format!(
                            "{} in sans-io code — use a deadline-driven form or justify \
                             with `// flux-lint: allow(block) — <why>`",
                            s.what
                        ),
                    });
                }
            }
            let st = match (live.first(), any_waived) {
                (Some(s), _) => {
                    site.insert(key.clone(), (pf.rel.clone(), s.line));
                    State::Tainted(s.clone())
                }
                (None, true) => State::Waived,
                (None, false) => State::Clean,
            };
            state.insert(key.clone(), st);
            calls.insert(key, index.edges(pf, f));
        }
    }

    // Pass 2: propagate "transitively blocks" caller-ward to a
    // fixpoint, one provenance hop per function.
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    for (key, st) in &state {
        if matches!(st, State::Tainted(_)) {
            tainted.insert(key.clone(), key.clone());
        }
    }
    loop {
        let mut changed = false;
        for (caller, edges) in &calls {
            if tainted.contains_key(caller) {
                continue;
            }
            if matches!(state.get(caller), Some(State::Waived)) {
                continue; // vetted boundary: does not propagate
            }
            if let Some((callee, _)) = edges.iter().find(|(c, _)| tainted.contains_key(c)) {
                tainted.insert(caller.clone(), callee.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: a sans-io function that blocks *only* through
    // out-of-scope callees is flagged at its first blocking call site.
    for key in &in_scope {
        if matches!(state.get(key), Some(State::Tainted(_))) {
            continue; // flagged at the source in pass 1
        }
        let Some(first_hop) = tainted.get(key) else { continue };
        let mut chain = vec![key.clone()];
        let mut cur = first_hop.clone();
        while chain.last() != Some(&cur) {
            chain.push(cur.clone());
            cur = tainted.get(&cur).cloned().unwrap_or(cur);
        }
        let source_key = chain.last().expect("chain is never empty").clone();
        if in_scope.contains(&source_key) {
            continue; // the source is flagged at its own site
        }
        let Some((_, cline)) =
            calls.get(key).and_then(|e| e.iter().find(|(c, _)| c == first_hop))
        else {
            continue;
        };
        let cline = *cline;
        let cfile = def_file.get(key).cloned().unwrap_or_default();
        let (sfile, sline) = site.get(&source_key).cloned().unwrap_or_default();
        let what = match state.get(&source_key) {
            Some(State::Tainted(s)) => s.what.clone(),
            _ => "a blocking call".to_owned(),
        };
        out.push(Violation {
            file: if cfile.is_empty() { sfile.clone() } else { cfile },
            line: cline,
            rule: Rule::Block,
            message: format!(
                "sans-io function `{}` transitively blocks: {what} via {} ({sfile}:{sline})",
                display_key(key),
                chain.iter().map(|k| display_key(k)).collect::<Vec<_>>().join(" -> "),
            ),
        });
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// True if `text` contains `.recv()` exactly (not `recv_timeout`,
/// `try_recv`, or a `recv(` with arguments).
fn bare_recv(text: &str) -> bool {
    text.contains(".recv()")
}

/// True if `text` contains a thread join: `.join()` with empty parens.
/// Slice/`Path` joins always take an argument, so the empty-parens form
/// is unambiguous.
fn thread_join(text: &str) -> bool {
    text.contains(".join()")
}

/// The lock token ending a guard acquisition, if `text` contains one:
/// `.lock()`, or the argument-less `.read()`/`.write()` RwLock forms.
fn lock_token_at(text: &str) -> Option<usize> {
    [".lock()", ".read()", ".write()"].iter().find_map(|t| text.find(t))
}

/// The first spanned I/O token in `text`, if any.
fn io_token(text: &str) -> Option<&'static str> {
    IO_TOKENS.iter().find(|t| text.contains(**t)).copied()
}

/// Scans one block for blocking sites. `held` carries the lock guards
/// in force from enclosing blocks (`(name, bind line)`); guards bound
/// in this block expire at its end.
fn scan_block(
    blanked: &str,
    span: (usize, usize),
    undeadlined_socket: bool,
    held: &mut Vec<(String, usize)>,
    out: &mut Vec<Source>,
) {
    let outer_guards = held.len();
    let stmts = split_stmts(blanked, span);
    for stmt in &stmts {
        // Own text only: tokens inside nested blocks are found by the
        // recursive walk below, so a loop statement doesn't aggregate
        // its body's I/O with an unrelated lock. Closure bodies inside
        // call parens (reader threads) stay visible.
        let own = stmt.own_text(blanked);
        let full = own.as_str();
        let head = stmt.head();
        let line_at = |at: usize| line_of(blanked, stmt.full.0 + at);

        if let Some(p) = full.find("thread::sleep(") {
            out.push(Source { line: line_at(p), what: "blocking sleep (`thread::sleep`)".into() });
        }
        if bare_recv(full) {
            let p = full.find(".recv()").unwrap_or(0);
            out.push(Source {
                line: line_at(p),
                what: "blocking channel receive (`recv()` with no deadline)".into(),
            });
        }
        if thread_join(full) {
            let p = full.find(".join()").unwrap_or(0);
            out.push(Source { line: line_at(p), what: "thread join (`JoinHandle::join`)".into() });
        }
        if undeadlined_socket {
            if let Some(tok) = SOCKET_READS.iter().find(|t| full.contains(**t)) {
                let p = full.find(tok).unwrap_or(0);
                out.push(Source {
                    line: line_at(p),
                    what: format!(
                        "un-deadlined socket read (`{}` with no `set_read_timeout`)",
                        tok.trim_end_matches('(')
                    ),
                });
            }
        }

        // Lock spans. A statement that both acquires a guard temporary
        // and performs I/O holds the lock across that I/O; a `let`
        // binding whose expression *ends* at the lock call creates a
        // named guard held until `drop(name)` or end of block.
        let lock_at = lock_token_at(full);
        if let Some(p) = lock_at {
            if let Some(tok) = io_token(full) {
                out.push(Source {
                    line: line_at(p),
                    what: format!("lock guard held across I/O (`{tok}` in the same statement)"),
                });
            }
        }
        // Held guards from earlier statements spanning this one's I/O.
        if !held.is_empty() && lock_at.is_none() {
            if let Some(tok) = io_token(full) {
                let (name, bound) = held.last().expect("held is non-empty").clone();
                let p = full.find(tok).unwrap_or(0);
                out.push(Source {
                    line: line_at(p),
                    what: format!(
                        "lock guard `{name}` (bound at line {bound}) held across `{tok}`"
                    ),
                });
            }
        }
        // Guard bookkeeping: new named guards and explicit drops.
        if let Some(p) = lock_at {
            let after = full[p..]
                .trim_start_matches(|c: char| c != ')')
                .trim_start_matches(')')
                .trim();
            let is_binding = after == ";" || after.is_empty();
            if is_binding {
                if let Some(name) = binding_of(head) {
                    held.push((name.to_owned(), line_at(p)));
                }
            }
        }
        held.retain(|(name, _)| !full.contains(&format!("drop({name})")));

        for &block in &stmt.blocks {
            scan_block(blanked, block, undeadlined_socket, held, out);
        }
    }
    held.truncate(outer_guards);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        check_block(&[ParsedFile::parse(rel, src)])
    }

    #[test]
    fn sleep_recv_join_fire_in_scope() {
        let src = "fn pump(rx: &Receiver<u8>, h: JoinHandle<()>) {\n\
                   \x20std::thread::sleep(Duration::from_millis(1));\n\
                   \x20let _x = rx.recv();\n\
                   \x20let _ = h.join();\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].message.contains("sleep"), "{}", v[0]);
        assert!(v[1].message.contains("recv"), "{}", v[1]);
        assert!(v[2].message.contains("join"), "{}", v[2]);
    }

    #[test]
    fn deadline_driven_forms_are_clean() {
        let src = "fn pump(rx: &Receiver<u8>) {\n\
                   \x20while let Ok(x) = rx.recv_timeout(Duration::from_millis(5)) { use_(x); }\n\
                   \x20let _ = rx.try_recv();\n\
                   \x20let s = parts.join(\", \");\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_files_are_classified_but_not_flagged() {
        let src = "fn nap() { std::thread::sleep(Duration::from_millis(1)); }\n";
        let v = run("crates/bench/src/demo.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn transitive_blocking_is_flagged_at_the_call_site() {
        let files = [
            ParsedFile::parse(
                "crates/sim/src/demo.rs",
                "fn step(&mut self) { flux_bench::pace(); }\n",
            ),
            ParsedFile::parse(
                "crates/bench/src/demo.rs",
                "pub fn pace() { std::thread::sleep(Duration::from_millis(1)); }\n",
            ),
        ];
        let v = check_block(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].file.contains("sim"), "{}", v[0]);
        assert!(v[0].message.contains("transitively blocks"), "{}", v[0]);
        assert!(v[0].message.contains("bench::pace"), "{}", v[0]);
    }

    #[test]
    fn waived_blocking_does_not_propagate() {
        let files = [
            ParsedFile::parse(
                "crates/sim/src/demo.rs",
                "fn step(&mut self) { flux_bench::pace(); }\n",
            ),
            ParsedFile::parse(
                "crates/bench/src/demo.rs",
                "pub fn pace() {\n // flux-lint: allow(block) — test pacing helper, never on the reactor path\n std::thread::sleep(Duration::from_millis(1));\n}\n",
            ),
        ];
        let v = check_block(&files);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bare_waiver_is_itself_a_violation() {
        let src = "fn nap() {\n // flux-lint: allow(block)\n std::thread::sleep(Duration::from_millis(1));\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("justification"), "{}", v[0]);
    }

    #[test]
    fn lock_guard_held_across_write_fires() {
        let src = "fn send(&self, msg: &Message) {\n\
                   \x20let mut g = self.out.lock();\n\
                   \x20write_frame(&mut *g, msg, MAX).ok();\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("held across"), "{}", v[0]);
    }

    #[test]
    fn dropped_guard_and_io_free_spans_are_clean() {
        let src = "fn send(&self, msg: &Message) {\n\
                   \x20let mut g = self.out.lock();\n\
                   \x20g.push(1);\n\
                   \x20drop(g);\n\
                   \x20write_frame(&mut self.w, msg, MAX).ok();\n}\n\
                   fn bump(&self) {\n\
                   \x20let mut g = self.counts.lock();\n\
                   \x20*g += 1;\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn single_statement_lock_and_io_fires() {
        let src = "fn send(&self, msg: &Message) {\n\
                   \x20write_frame(&mut *self.out.lock(), msg, MAX).ok();\n}\n";
        let v = run("crates/sim/src/demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("same statement"), "{}", v[0]);
    }

    #[test]
    fn undeadlined_socket_read_fires_and_deadlined_is_clean() {
        let bad = "fn pump(stream: &mut TcpStream, buf: &mut Vec<u8>) {\n\
                   \x20stream.read_exact(buf).ok();\n}\n";
        let v = run("crates/sim/src/demo.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("socket read"), "{}", v[0]);

        let good = "fn pump(stream: &mut TcpStream, buf: &mut Vec<u8>) {\n\
                    \x20stream.set_read_timeout(Some(TIMEOUT)).ok();\n\
                    \x20stream.read_exact(buf).ok();\n}\n";
        let v = run("crates/sim/src/demo.rs", good);
        assert!(v.is_empty(), "{v:?}");
    }
}
