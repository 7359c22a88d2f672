//! Hot-path allocation accounting (`hotalloc`).
//!
//! The broker's per-message path — frame encode/decode, sim event
//! dispatch, kvs batch apply and shard push, broker routing — runs
//! once per message at paper-scale rates (millions of events per
//! second in the 8192-rank cells). A single `format!` or fresh
//! `Vec::new` on that path turns into millions of allocator round
//! trips; PR 5/6 bought their measured wins precisely by hunting these
//! down by hand. This pass keeps them from creeping back.
//!
//! ## Hot-path registry
//!
//! Hot roots are named explicitly — `(file, fn)` pairs in
//! [`HOT_ROOTS`] — because "hot" is a design property, not something
//! inferable from syntax. Hotness then propagates *callee-ward*
//! through the per-definition call index to depth [`HOT_DEPTH`]: a
//! helper called from `flush_batch` runs just as often as
//! `flush_batch` itself. (Caller-ward would be wrong: calling a hot
//! function does not make the caller hot.)
//!
//! ## Condemned and exonerated
//!
//! Condemned per statement: `Vec::new`/`vec![]`, `String::new`, fresh
//! map/set constructors, `.to_vec()`/`.to_owned()`/`.to_string()`,
//! `format!`, `.clone()`, and fresh `.collect()`. Exonerated:
//!
//! * statements mentioning `with_capacity` — pre-reserved buffers are
//!   the sanctioned shape;
//! * statements inside `Err(`/`map_err(`/`unwrap_or_else(` — the cold
//!   error path can afford to allocate its message;
//! * top-level statements *before the first top-level loop* — one-time
//!   setup amortized over the loop's iterations;
//! * `push`/`extend`/`resize`/`clear` are never condemned — amortized
//!   growth into a reused buffer is the point of the `_into` APIs.
//!
//! ## Waivers
//!
//! `// flux-lint: allow(hotalloc) — <justification>` waives a site;
//! the justification is mandatory. The canonical justified entries are
//! the broker's fan-out `msg.clone()`s: `Message` clones are
//! header-shallow (`Topic` is `Arc<str>`-backed, `Payload` holds an
//! `Arc<PayloadInner>`), so the clone is a refcount bump, not a copy.

use crate::analysis::{display_key, line_of, split_stmts, waiver_status, DefIndex, ParsedFile, Stmt};
use crate::{Rule, Violation, ALLOW_REACH};
use std::collections::BTreeMap;

/// Waiver comment token (checked on raw lines).
const WAIVER: &str = "flux-lint: allow(hotalloc)";

/// The hot-path registry: `(file, fn)` roots whose bodies (and callees
/// to [`HOT_DEPTH`]) run once per message. Kept in sync with
/// DESIGN.md §18's table.
const HOT_ROOTS: &[(&str, &str)] = &[
    // wire framing chain
    ("crates/wire/src/codec.rs", "encode_into"),
    ("crates/wire/src/frame.rs", "write_frame_into"),
    ("crates/wire/src/frame.rs", "read_frame_into"),
    // sim event engine
    ("crates/sim/src/engine.rs", "dispatch"),
    ("crates/sim/src/engine.rs", "dispatch_pending"),
    ("crates/sim/src/engine.rs", "push_event"),
    ("crates/sim/src/arena.rs", "insert"),
    ("crates/sim/src/arena.rs", "take"),
    ("crates/sim/src/queue.rs", "push"),
    ("crates/sim/src/queue.rs", "pop_min"),
    // kvs master role: the one apply, push dedup, park and flush
    ("crates/kvs/src/authority.rs", "apply"),
    ("crates/kvs/src/authority.rs", "note_push"),
    ("crates/kvs/src/authority.rs", "accept_push"),
    ("crates/kvs/src/authority.rs", "flush_batch"),
    // kvs read role: the get, the walk, the load a child asks for
    ("crates/kvs/src/reads.rs", "lookup"),
    ("crates/kvs/src/reads.rs", "step_walk"),
    ("crates/kvs/src/reads.rs", "serve_load"),
    // simulated script client: one request per op
    ("crates/rt/src/script.rs", "issue_next"),
    // broker route
    ("crates/broker/src/broker.rs", "send_tree"),
    ("crates/broker/src/broker.rs", "route_response"),
    ("crates/broker/src/broker.rs", "route_ring"),
    ("crates/broker/src/broker.rs", "fan_children"),
    ("crates/broker/src/broker.rs", "dispatch_request"),
    ("crates/broker/src/broker.rs", "deliver_event_locally"),
];

/// How many call hops hotness propagates from a root.
const HOT_DEPTH: usize = 2;

/// Condemned allocation tokens, with what to call them.
const CONDEMNED: &[(&str, &str)] = &[
    ("Vec::new()", "fresh `Vec::new`"),
    ("vec![", "fresh `vec![]`"),
    ("String::new()", "fresh `String::new`"),
    ("HashMap::new()", "fresh `HashMap::new`"),
    ("HashSet::new()", "fresh `HashSet::new`"),
    ("BTreeMap::new()", "fresh `BTreeMap::new`"),
    ("BTreeSet::new()", "fresh `BTreeSet::new`"),
    ("VecDeque::new()", "fresh `VecDeque::new`"),
    (".to_vec()", "`to_vec` copy"),
    (".to_owned()", "`to_owned` copy"),
    (".to_string()", "`to_string` allocation"),
    ("format!(", "`format!` allocation"),
    (".clone()", "`clone` per message"),
    (".collect()", "fresh `collect`"),
    (".collect::<", "fresh `collect`"),
];

/// Statement-level exonerations: a statement containing any of these is
/// off the hook (pre-reserved buffer, or cold error path).
const EXONERATED: &[&str] = &["with_capacity", "Err(", "map_err(", "unwrap_or_else("];

/// One allocation site found in a hot function.
struct Site {
    /// 1-based line of the allocation.
    line: usize,
    /// What to call it, for diagnostics.
    what: &'static str,
}

/// Runs the pass over the shared parsed-file cache.
pub(crate) fn check_hotalloc(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let index = DefIndex::build(files);

    // Definition lookup and call edges, keyed like the index.
    let mut defs: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut edges: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    let mut roots: Vec<String> = Vec::new();
    for (pi, pf) in files.iter().enumerate() {
        let crate_name = pf.crate_name().to_owned();
        for (i, f) in pf.fns.iter().enumerate() {
            let key = DefIndex::key(&crate_name, &f.name, &pf.rel, i);
            if HOT_ROOTS.contains(&(pf.rel.as_str(), f.name.as_str())) {
                roots.push(key.clone());
            }
            edges.insert(key.clone(), index.edges(pf, f));
            defs.insert(key, (pi, i));
        }
    }

    // Callee-ward hotness to HOT_DEPTH, keeping the root-ward chain.
    let mut hot: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut frontier = roots;
    for k in &frontier {
        hot.insert(k.clone(), vec![k.clone()]);
    }
    for _ in 0..HOT_DEPTH {
        let mut next = Vec::new();
        for caller in &frontier {
            let chain = hot.get(caller).cloned().unwrap_or_default();
            for (callee, _) in edges.get(caller).into_iter().flatten() {
                // Constructors are one-time setup, not per-message work
                // (and `Type::new(` matches the bare-call pattern, so a
                // `Vec::new()` would otherwise drag `Broker::new` in).
                if callee.contains("::new@") {
                    continue;
                }
                if defs.contains_key(callee) && !hot.contains_key(callee) {
                    let mut c = chain.clone();
                    c.push(callee.clone());
                    hot.insert(callee.clone(), c);
                    next.push(callee.clone());
                }
            }
        }
        frontier = next;
    }

    for (key, chain) in &hot {
        let (pi, fi) = defs[key];
        let pf = &files[pi];
        let f = &pf.fns[fi];
        let raw_lines: Vec<&str> = pf.raw.lines().collect();
        let mut sites = Vec::new();
        scan_fn(&pf.stripped, f.body, &mut sites);
        let via = if chain.len() > 1 {
            format!(
                " (hot via {})",
                chain.iter().map(|k| display_key(k)).collect::<Vec<_>>().join(" -> ")
            )
        } else {
            String::new()
        };
        for s in sites {
            match waiver_status(&raw_lines, s.line, WAIVER, ALLOW_REACH) {
                Some(true) => {}
                Some(false) => out.push(Violation {
                    file: pf.rel.clone(),
                    line: s.line,
                    rule: Rule::HotAlloc,
                    message: format!(
                        "`allow(hotalloc)` without a justification — write \
                         `// flux-lint: allow(hotalloc) — <why this allocation is fine>` ({})",
                        s.what
                    ),
                }),
                None => out.push(Violation {
                    file: pf.rel.clone(),
                    line: s.line,
                    rule: Rule::HotAlloc,
                    message: format!(
                        "{} in hot path `{}`{via} — reuse a buffer, pre-reserve, or justify \
                         with `// flux-lint: allow(hotalloc) — <why>`",
                        s.what,
                        display_key(key),
                    ),
                }),
            }
        }
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Scans a hot function body: top-level statements before the first
/// top-level loop are one-time setup (exonerated); everything else is
/// scanned statement-by-statement, recursing into nested blocks.
fn scan_fn(blanked: &str, body: (usize, usize), out: &mut Vec<Site>) {
    let stmts = split_stmts(blanked, body);
    let first_loop = stmts.iter().position(is_loop_stmt);
    for (i, stmt) in stmts.iter().enumerate() {
        if let Some(lp) = first_loop {
            if i < lp {
                continue; // one-time setup before the loop
            }
        }
        scan_stmt(blanked, stmt, out);
    }
}

/// Scans one statement's own text (nested block interiors blanked so
/// they are only counted by the recursive walk), then recurses.
fn scan_stmt(blanked: &str, stmt: &Stmt, out: &mut Vec<Site>) {
    let own = stmt.own_text(blanked);
    if !EXONERATED.iter().any(|t| own.contains(t)) {
        for (tok, what) in CONDEMNED {
            if let Some(p) = own.find(tok) {
                out.push(Site { line: line_of(blanked, stmt.full.0 + p), what });
            }
        }
    }
    for &block in &stmt.blocks {
        for inner in &split_stmts(blanked, block) {
            scan_stmt(blanked, inner, out);
        }
    }
}

/// Is this a top-level loop statement?
fn is_loop_stmt(stmt: &Stmt) -> bool {
    let head = crate::analysis::skip_comment_markers(stmt.head());
    head.starts_with("for ")
        || head.starts_with("while ")
        || head.starts_with("while(")
        || head.starts_with("loop ")
        || head.starts_with("loop{")
        || head == "loop"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let parsed: Vec<ParsedFile> =
            files.iter().map(|(rel, src)| ParsedFile::parse(rel, src)).collect();
        check_hotalloc(&parsed)
    }

    #[test]
    fn alloc_in_hot_root_fires() {
        let src = "impl Message {\n\
                   \x20pub fn encode_into(&self, out: &mut Vec<u8>) {\n\
                   \x20 let tag = format!(\"{}\", self.kind);\n\
                   \x20 out.extend(tag.as_bytes());\n\
                   \x20}\n}\n";
        let v = run(&[("crates/wire/src/codec.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("format!"), "{}", v[0]);
        assert!(v[0].message.contains("encode_into"), "{}", v[0]);
    }

    #[test]
    fn cold_fns_and_cold_paths_are_clean() {
        let src = "pub fn helper() -> Vec<u8> { Vec::new() }\n\
                   impl Message {\n\
                   \x20pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), E> {\n\
                   \x20 let mut scratch = Vec::with_capacity(64);\n\
                   \x20 scratch.push(1);\n\
                   \x20 self.check().map_err(|e| format!(\"bad: {e}\"))?;\n\
                   \x20 if out.is_empty() { return Err(format!(\"empty {}\", self.kind)); }\n\
                   \x20 out.extend(scratch.iter());\n\
                   \x20 Ok(())\n\
                   \x20}\n}\n";
        let v = run(&[("crates/wire/src/codec.rs", src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn setup_before_loop_is_exonerated_but_loop_body_is_not() {
        let src = "impl Engine {\n\
                   \x20fn dispatch(&mut self, kind: EventKind) {\n\
                   \x20 let mut names = Vec::new();\n\
                   \x20 for ev in self.queue.drain() {\n\
                   \x20  let label = ev.topic.to_string();\n\
                   \x20  names.push(label);\n\
                   \x20 }\n\
                   \x20}\n}\n";
        let v = run(&[("crates/sim/src/engine.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("to_string"), "{}", v[0]);
    }

    #[test]
    fn hotness_propagates_to_callees_with_provenance() {
        let src = "impl Engine {\n\
                   \x20fn dispatch(&mut self, kind: EventKind) { self.deliver(kind); }\n\
                   \x20fn deliver(&mut self, kind: EventKind) {\n\
                   \x20 let copy = self.buf.to_vec();\n\
                   \x20 self.sink(copy);\n\
                   \x20}\n}\n";
        let v = run(&[("crates/sim/src/engine.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("to_vec"), "{}", v[0]);
        assert!(v[0].message.contains("hot via"), "{}", v[0]);
        assert!(v[0].message.contains("dispatch -> "), "{}", v[0]);
    }

    #[test]
    fn hotness_stops_at_depth_two() {
        let src = "impl Engine {\n\
                   \x20fn dispatch(&mut self, kind: EventKind) { self.a(kind); }\n\
                   \x20fn a(&mut self, kind: EventKind) { self.b(kind); }\n\
                   \x20fn b(&mut self, kind: EventKind) { self.c(kind); }\n\
                   \x20fn c(&mut self, kind: EventKind) { let _v = self.buf.to_vec(); }\n}\n";
        let v = run(&[("crates/sim/src/engine.rs", src)]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn justified_waiver_is_clean_and_bare_waiver_fires() {
        let good = "impl B {\n\
                    \x20fn fan_children(&mut self, msg: &Message) {\n\
                    \x20 // flux-lint: allow(hotalloc) — Message clone is header-shallow, payload is Arc\n\
                    \x20 self.out.push(msg.clone());\n\
                    \x20}\n}\n";
        let v = run(&[("crates/broker/src/broker.rs", good)]);
        assert!(v.is_empty(), "{v:?}");

        let bad = "impl B {\n\
                   \x20fn fan_children(&mut self, msg: &Message) {\n\
                   \x20 // flux-lint: allow(hotalloc)\n\
                   \x20 self.out.push(msg.clone());\n\
                   \x20}\n}\n";
        let v = run(&[("crates/broker/src/broker.rs", bad)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("justification"), "{}", v[0]);
    }

    #[test]
    fn alloc_after_first_loop_is_still_flagged() {
        let src = "impl B {\n\
                   \x20fn deliver_event_locally(&mut self, msg: Message) -> bool {\n\
                   \x20 for i in 0..self.subs.len() {\n\
                   \x20  self.visit(i);\n\
                   \x20 }\n\
                   \x20 let mut to_clients: Vec<ClientId> = Vec::new();\n\
                   \x20 for (&client, prefixes) in &self.core.client_subs {\n\
                   \x20  to_clients.push(client);\n\
                   \x20 }\n\
                   \x20 true\n\
                   \x20}\n}\n";
        let v = run(&[("crates/broker/src/broker.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Vec::new"), "{}", v[0]);
    }

    #[test]
    fn non_hot_files_are_ignored() {
        let src = "pub fn anything() { let _s = format!(\"x{}\", 1); }\n";
        let v = run(&[("crates/bench/src/demo.rs", src)]);
        assert!(v.is_empty(), "{v:?}");
    }
}
