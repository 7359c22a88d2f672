//! Determinism-taint analysis.
//!
//! The repo's strongest guarantee — byte-identical sim cells in
//! `BENCH_kap.json` and replayable flux-mc/chaos traces — dies the
//! moment a nondeterminism source leaks into deterministic code: a
//! `HashMap` iteration feeding wire encoding or event emission, an
//! `Instant::now()` stored in a replayable record, a thread id or a
//! pointer value used for ordering. This pass classifies those sources,
//! exonerates order-insensitive uses, and propagates function-level
//! taint through the call graph into the *deterministic scope*: the
//! crates (and rt files) whose behaviour must be a pure function of the
//! message history and the seed.
//!
//! ## The lattice
//!
//! Each function is `Clean`, `Waived`, or `Tainted(source)`. A source
//! is one of:
//!
//! * **hash-iter** — iteration over a `HashMap`/`HashSet`-typed field,
//!   local, or parameter (`.iter()`, `.keys()`, `.values()`,
//!   `.drain()`, or a `for` loop over a reference to one). `RandomState`
//!   makes the order differ across *processes*, which breaks trace
//!   replay even when a single run looks stable.
//! * **wall-clock** — `Instant::now`, `SystemTime::now`, `UNIX_EPOCH`.
//! * **thread-id** — `thread::current()`, `ThreadId`.
//! * **addr-order** — a pointer cast (`as_ptr`, `as *const`, `as *mut`)
//!   combined in one statement with ordering or hashing (`as usize`,
//!   `.cmp(`, `.hash(`, `sort`).
//!
//! A source is **exonerated** (stays `Clean`) when the same statement
//! ends in an order-insensitive terminal (`count`/`sum`/`min`/`max`/
//! `all`/`any`/`len`/`contains`), re-keys into an ordered or hashed
//! container (`BTreeMap`/`BTreeSet`/`BinaryHeap`/`collect::<HashMap>`),
//! sorts inline (`.sort*`), or binds a collection that one of the next
//! few statements in the same block sorts (`let mut v = m.keys()…;
//! v.sort();`).
//!
//! Sources inside the deterministic scope are violations at the source
//! site. A deterministic-scope function that *calls* (transitively) a
//! tainted function outside the scope is a violation at the call site,
//! with the provenance chain in the message. Resolution is name-based
//! but per *definition*: a bare or `self.` call binds to the unique
//! same-file definition, else the unique crate-wide one; cross-crate
//! `flux_<crate>::…` qualified paths resolve the same way in the named
//! crate. An ambiguous name (trait impls sharing it) and any dotted
//! call on a non-`self` receiver resolve to nothing and are treated as
//! clean (false negatives over false positives, like every semantic
//! lint here).
//!
//! ## Waivers
//!
//! `// flux-lint: allow(nondet) — <justification>` waives the source on
//! or just above the line, exactly like the panic rule — but the
//! justification text is mandatory: a bare `allow(nondet)` is itself a
//! violation. Waived sources do not propagate taint (the human took
//! responsibility for the boundary). The canonical justified entries
//! are the diagnostics-only fields excluded from record equality:
//! `ScriptReport::wall_ns`/`events_per_sec` and the bench harness's
//! wall-clock budget checks.

use crate::analysis::{
    binding_of, display_key, line_of, split_stmts, waiver_status, DefIndex, ParsedFile, Scope, Stmt,
};
use crate::{Rule, Violation, ALLOW_REACH};
use std::collections::{BTreeMap, BTreeSet};

/// Waiver comment token (checked on raw lines).
const WAIVER: &str = "flux-lint: allow(nondet)";

/// The deterministic scope: crates whose entire `src/` must replay
/// byte-identically from the message history and seed, plus the
/// deterministic files inside the otherwise wall-clock `rt` crate (the
/// sim transport, the script/replay plane, and the seeded fault/chaos
/// machinery live next to the live TCP/thread transports).
const DET_SCOPE: Scope = Scope {
    prefixes: &[
        "crates/wire/src/",
        "crates/value/src/",
        "crates/hash/src/",
        "crates/topo/src/",
        "crates/proto/src/",
        "crates/broker/src/",
        "crates/kvs/src/",
        "crates/modules/src/",
        "crates/sim/src/",
        "crates/flux-mc/src/",
        "crates/kap/src/",
        "crates/core/src/",
        "crates/pmi/src/",
    ],
    files: &[
        "crates/rt/src/sim.rs",
        "crates/rt/src/script.rs",
        "crates/rt/src/faults.rs",
        "crates/rt/src/chaos.rs",
    ],
};

/// Is this file part of the deterministic scope?
pub(crate) fn det_scope(rel: &str) -> bool {
    DET_SCOPE.contains(rel)
}

/// Iteration methods whose order follows the container's.
const ITER_METHODS: &[&str] =
    &[".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".into_iter()", ".drain()"];

/// Statement-level exonerations: order-insensitive terminals and
/// ordered/hashed re-keying.
const ORDER_FREE: &[&str] = &[
    ".count()",
    ".sum()",
    ".sum::",
    ".product()",
    ".min(",
    ".max(",
    ".min_by",
    ".max_by",
    ".all(",
    ".any(",
    ".len()",
    ".is_empty()",
    ".contains(",
    ".contains_key(",
    ".sort",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "collect::<HashMap",
    "collect::<HashSet",
    "collect::<std::collections::HashMap",
    "collect::<std::collections::HashSet",
];

/// One nondeterminism source found in a function.
#[derive(Clone, Debug)]
struct Source {
    /// 1-based line of the source site.
    line: usize,
    /// What fired, for diagnostics (`HashMap iteration over \`m\``).
    what: String,
}

/// Per-function taint classification.
enum State {
    /// No unexonerated source; may still become tainted via calls.
    Clean,
    /// Direct source(s), none waived; carries the first for provenance.
    Tainted(Source),
    /// Every direct source carries a justified waiver: the function is
    /// a vetted boundary and does not propagate.
    Waived,
}

/// Runs the pass over the shared parsed-file cache.
pub(crate) fn check_taint(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();

    // Functions are keyed per *definition* (`crate::name@file#i`) via
    // the shared [`DefIndex`]; resolution is unique-or-nothing.
    let index = DefIndex::build(files);

    // Pass 1: classify every function in the workspace and flag direct
    // source sites inside the deterministic scope.
    // Key: `crate::fn_name`.
    let mut state: BTreeMap<String, State> = BTreeMap::new();
    let mut site: BTreeMap<String, (String, usize)> = BTreeMap::new(); // key → (file, line)
    let mut def_file: BTreeMap<String, String> = BTreeMap::new(); // key → defining file
    let mut calls: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new(); // key → (callee key, call line)
    let mut in_scope: BTreeSet<String> = BTreeSet::new();

    for pf in files {
        let crate_name = pf.crate_name().to_owned();
        let raw_lines: Vec<&str> = pf.raw.lines().collect();
        let fields = field_names(pf);
        let scoped = det_scope(&pf.rel);
        for (i, f) in pf.fns.iter().enumerate() {
            let key = DefIndex::key(&crate_name, &f.name, &pf.rel, i);
            def_file.entry(key.clone()).or_insert_with(|| pf.rel.clone());
            if scoped {
                in_scope.insert(key.clone());
            }
            // Bare receivers must be declared hash-typed *in this
            // function* (a parameter or a local); `self.x` receivers
            // check the file's field declarations. File-wide name
            // pooling would let a `let ids: HashSet<_> = …` in one
            // function condemn an unrelated `Vec` named `ids` in
            // another.
            let mut locals = hash_typed_names(&f.sig);
            let mut sources = Vec::new();
            scan_block(&pf.stripped, f.body, &fields, &mut locals, &mut sources);
            // Split the sources into waived (must be justified) and live.
            let mut live: Vec<Source> = Vec::new();
            let mut any_waived = false;
            for s in sources {
                match waiver_status(&raw_lines, s.line, WAIVER, ALLOW_REACH) {
                    Some(true) => any_waived = true,
                    Some(false) if scoped => out.push(Violation {
                        file: pf.rel.clone(),
                        line: s.line,
                        rule: Rule::Nondet,
                        message: format!(
                            "`allow(nondet)` without a justification — write \
                             `// flux-lint: allow(nondet) — <why this cannot reach a \
                             deterministic record>` ({})",
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
                        rule: Rule::Nondet,
                        message: format!(
                            "{} in deterministic code — sort, use a BTreeMap, or justify \
                             with `// flux-lint: allow(nondet) — <why>`",
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
            // Call edges: same-crate bare calls + cross-crate qualified.
            calls.insert(key, index.edges(pf, f));
        }
    }

    // Pass 2: propagate taint caller-ward to a fixpoint, tracking one
    // provenance step per function for chain reconstruction.
    let mut tainted: BTreeMap<String, String> = BTreeMap::new(); // key → next hop (or itself)
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

    // Pass 3: a deterministic-scope function tainted *only* through
    // out-of-scope callees is flagged at its first tainted call site
    // (in-scope sources were already flagged at the source itself).
    for key in &in_scope {
        if matches!(state.get(key), Some(State::Tainted(_))) {
            continue; // flagged at the source in pass 1
        }
        let Some(first_hop) = tainted.get(key) else { continue };
        // Reconstruct the chain down to the source function.
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
            _ => "nondeterminism".to_owned(),
        };
        out.push(Violation {
            file: if cfile.is_empty() { sfile.clone() } else { cfile },
            line: cline,
            rule: Rule::Nondet,
            message: format!(
                "deterministic function `{}` reaches {what} via {} ({sfile}:{sline})",
                display_key(key),
                chain.iter().map(|k| display_key(k)).collect::<Vec<_>>().join(" -> "),
            ),
        });
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Hash-typed *field* declarations of a file: `hash_typed_names` over
/// the stripped text with every function body blanked, so `let`
/// annotations inside one function cannot condemn bare receivers in
/// another.
fn field_names(pf: &ParsedFile) -> BTreeSet<String> {
    let mut bytes = pf.stripped.clone().into_bytes();
    for f in &pf.fns {
        for b in &mut bytes[f.body.0..f.body.1] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    hash_typed_names(&String::from_utf8(bytes).expect("blanking is ascii-safe"))
}

/// Collects names declared with a hash-container type anywhere in
/// `text`: struct fields and parameters (`name: HashMap<…>`) and local
/// bindings (`let [mut] name = HashMap::new()` and friends).
fn hash_typed_names(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for container in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(p) = text[from..].find(container) {
            let abs = from + p;
            from = abs + container.len();
            // `name: [&][mut ]HashMap<` (field, param, or annotation).
            let before = &text[..abs];
            let trimmed = before
                .trim_end()
                .trim_end_matches("mut")
                .trim_end()
                .trim_end_matches(['&', ' ']);
            if let Some(head) = trimmed.strip_suffix(':') {
                if let Some(name) = ident_at_end(head) {
                    out.insert(name);
                }
                continue;
            }
            // `let [mut] name = HashMap::new()` / `with_capacity` / `from`.
            if let Some(eq_head) = trimmed.strip_suffix('=') {
                let stmt_head = eq_head.rfind(['\n', ';', '{', '}']).map_or(eq_head, |i| &eq_head[i + 1..]);
                if let Some(name) = binding_of(stmt_head) {
                    out.insert(name.to_owned());
                }
            }
        }
    }
    out
}

/// The identifier `text` ends with, if any.
fn ident_at_end(text: &str) -> Option<String> {
    let t = text.trim_end();
    let bytes = t.as_bytes();
    let mut start = bytes.len();
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    (start < bytes.len()).then(|| t[start..].to_owned())
}

/// Scans one block for sources, tracking hash-typed local bindings and
/// collect-then-sort exoneration across adjacent statements. `fields`
/// scopes `self.x` receivers; `locals` (params + `let` bindings seen so
/// far) scopes bare receivers.
fn scan_block(
    blanked: &str,
    span: (usize, usize),
    fields: &BTreeSet<String>,
    locals: &mut BTreeSet<String>,
    out: &mut Vec<Source>,
) {
    let stmts = split_stmts(blanked, span);
    for (i, stmt) in stmts.iter().enumerate() {
        let full = &blanked[stmt.full.0..stmt.full.1];
        let head = stmt.segs.join(" ");
        // 1-based line of byte `at` within this statement's span.
        let line_at = |at: usize| line_of(blanked, stmt.full.0 + at);

        // New hash-typed locals come into scope for later statements.
        locals.extend(hash_typed_names(&head));

        // Clock / thread / address sources are context-free tokens.
        for (tok, what) in [
            ("Instant::now(", "wall-clock read (`Instant::now`)"),
            ("SystemTime::now(", "wall-clock read (`SystemTime::now`)"),
            ("UNIX_EPOCH", "wall-clock read (`UNIX_EPOCH`)"),
            ("thread::current(", "thread identity (`thread::current`)"),
            ("ThreadId", "thread identity (`ThreadId`)"),
        ] {
            if let Some(p) = full.find(tok) {
                out.push(Source { line: line_at(p), what: what.to_owned() });
            }
        }
        let ptr_at = ["as_ptr(", " as *const", " as *mut"]
            .iter()
            .find_map(|t| full.find(t));
        if let Some(p) = ptr_at {
            if full.contains(" as usize")
                || full.contains(".cmp(")
                || full.contains(".hash(")
                || full.contains("sort")
            {
                out.push(Source { line: line_at(p), what: "pointer/address ordering".to_owned() });
            }
        }

        // Hash-container iteration, with receiver scoping.
        if let Some((name, p)) = hash_iteration(&head, full, fields, locals) {
            if !exonerated(full) && !sorted_later(&stmts[i..], &head, blanked) {
                out.push(Source {
                    line: line_at(p),
                    what: format!("HashMap/HashSet iteration over `{name}`"),
                });
            }
        }

        for &block in &stmt.blocks {
            scan_block(blanked, block, fields, locals, out);
        }
    }
}

/// Detects iteration over a hash-typed name in the statement: method
/// iteration (`self.m.iter()`, `m.keys()`) or a `for` loop over a
/// (reference to a) hash-typed name. Returns the name and its byte
/// offset within `full`. Receivers owned by something other than `self`
/// (`other.replies.iter()`) never match — the field belongs to a
/// different struct and its type is unknown here.
fn hash_iteration(
    head: &str,
    full: &str,
    fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
) -> Option<(String, usize)> {
    for tok in ITER_METHODS {
        let mut from = 0;
        while let Some(p) = full[from..].find(tok) {
            let abs = from + p;
            from = abs + tok.len();
            if let Some(name) = scoped_receiver(&full[..abs], fields, locals) {
                return Some((name, abs));
            }
        }
    }
    // `for pat in &self.m {` / `for pat in &m {` / `for pat in m {`
    // (the method forms are caught above; here only bare references).
    let h = head.trim_start();
    if h.starts_with("for ") {
        if let Some(pos) = h.find(" in ") {
            let expr = h[pos + 4..].trim().trim_start_matches("&mut ").trim_start_matches('&');
            let expr = expr.trim_end_matches('{').trim();
            let (candidate, names) = match expr.strip_prefix("self.") {
                Some(field) => (field, fields),
                None => (expr, locals),
            };
            if !candidate.is_empty()
                && candidate.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && names.contains(candidate)
            {
                let at = full.find(" in ").map_or(0, |p| p + 4);
                return Some((candidate.to_owned(), at));
            }
        }
    }
    None
}

/// The receiver name ending `text`, if it is a hash-typed name in
/// scope: `self.name` checks the file's field declarations, a bare
/// name checks this function's params/locals. `outcome.replies`
/// (owner ≠ self) → None.
fn scoped_receiver(
    text: &str,
    fields: &BTreeSet<String>,
    locals: &BTreeSet<String>,
) -> Option<String> {
    let bytes = text.as_bytes();
    let end = bytes.len();
    // Identifier directly before the token.
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let name = &text[start..end];
    // Owner: bare (→ locals), or `self.`-owned (→ fields) only.
    let names = if start >= 1 && bytes[start - 1] == b'.' {
        let owner_end = start - 1;
        let mut owner_start = owner_end;
        while owner_start > 0
            && (bytes[owner_start - 1].is_ascii_alphanumeric() || bytes[owner_start - 1] == b'_')
        {
            owner_start -= 1;
        }
        if &text[owner_start..owner_end] != "self" {
            return None;
        }
        fields
    } else {
        locals
    };
    names.contains(name).then(|| name.to_owned())
}

/// Statement-local exoneration: the iteration's order cannot reach an
/// ordered observation.
fn exonerated(full: &str) -> bool {
    ORDER_FREE.iter().any(|t| full.contains(t))
}

/// Collect-then-sort across adjacent statements: the iteration binds a
/// collection that one of the next few statements sorts.
fn sorted_later(rest: &[Stmt], head: &str, blanked: &str) -> bool {
    let Some(bound) = binding_of(head) else { return false };
    rest.iter().skip(1).take(4).any(|s| {
        let text = &blanked[s.full.0..s.full.1];
        text.contains(&format!("{bound}.sort"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        check_taint(&[ParsedFile::parse(rel, src)])
    }

    #[test]
    fn hash_iteration_feeding_output_is_flagged() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S {\n fn dump(&self, out: &mut Vec<u32>) {\n  for (k, _) in &self.m {\n   out.push(*k);\n  }\n }\n}\n";
        let v = run("crates/kvs/src/demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains('m'), "{}", v[0]);
    }

    #[test]
    fn sorted_and_order_free_uses_are_clean() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S {\n fn a(&self) -> usize { self.m.values().count() }\n fn b(&self) -> Vec<u32> {\n  let mut v: Vec<u32> = self.m.keys().copied().collect();\n  v.sort_unstable();\n  v\n }\n fn c(&self) -> BTreeMap<u32, u32> { self.m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>() }\n}\n";
        let v = run("crates/kvs/src/demo.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn foreign_receivers_and_vec_shadows_are_clean() {
        // `outcome.replies` is a field of another struct; `fences` here
        // is a Vec parameter shadowing nothing hash-typed.
        let src = "struct S { fences: HashMap<u32, u32> }\nimpl S {\n fn f(&self, outcome: &Outcome) {\n  for r in outcome.replies.iter() { use_(r); }\n }\n fn g(&self, fences: Vec<u32>) {\n  for f in fences { use_(f); }\n }\n}\n";
        // `fences` the param shadows the field name but is Vec-typed;
        // bare receivers resolve against the *function's* params and
        // locals, never the file-wide field pool, so neither fires.
        let v = run("crates/kvs/src/demo.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn let_annotations_do_not_leak_across_functions() {
        // `ids` is a HashSet in `a` but a Vec in `b`; only the loop in
        // `a` (which really iterates hash order) may fire.
        let src = "impl S {\n fn a(&self, part: &[u32]) {\n  let ids: HashSet<u32> = part.iter().copied().collect();\n  for id in ids { emit(id); }\n }\n fn b(&self) {\n  let ids: Vec<u32> = vec![1, 2];\n  for id in ids { emit(id); }\n }\n}\n";
        let v = run("crates/kvs/src/demo.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4, "{}", v[0]);
    }

    #[test]
    fn wall_clock_needs_justified_waiver() {
        let bad = "fn t() -> u64 {\n let s = Instant::now();\n 0\n}\n";
        let v = run("crates/sim/src/demo.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("Instant::now"), "{}", v[0]);

        let unjustified = "fn t() -> u64 {\n // flux-lint: allow(nondet)\n let s = Instant::now();\n 0\n}\n";
        let v = run("crates/sim/src/demo.rs", unjustified);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("justification"), "{}", v[0]);

        let justified = "fn t() -> u64 {\n // flux-lint: allow(nondet) — diagnostics-only wall clock, excluded from record equality\n let s = Instant::now();\n 0\n}\n";
        let v = run("crates/sim/src/demo.rs", justified);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn out_of_scope_files_are_not_linted() {
        let src = "fn t() -> Instant { Instant::now() }\n";
        let v = run("crates/rt/src/tcp.rs", src);
        assert!(v.is_empty(), "{v:?}");
        let v = run("crates/cli/src/main.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn taint_propagates_from_out_of_scope_helper() {
        let files = [
            ParsedFile::parse(
                "crates/rt/src/sim.rs",
                "fn step(&mut self) { let t = self.stamp(); emit(t); }\n",
            ),
            ParsedFile::parse(
                "crates/rt/src/tcp.rs",
                "impl T { fn stamp(&self) -> u64 { Instant::now().elapsed().as_nanos() as u64 } }\n",
            ),
        ];
        let v = check_taint(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].file.contains("sim.rs"), "{}", v[0]);
        assert!(v[0].message.contains("rt::stamp"), "{}", v[0]);
    }

    #[test]
    fn thread_and_addr_sources_fire() {
        let src = "fn t(xs: &[Arc<u8>]) {\n let id = thread::current().id();\n let mut v: Vec<usize> = xs.iter().map(|x| Arc::as_ptr(x) as usize).collect();\n v.sort();\n}\n";
        let v = run("crates/broker/src/demo.rs", src);
        // thread::current + the pointer-ordering statement both fire
        // (the `.sort()` lives in a *later* statement and exonerates
        // nothing about address identity).
        assert_eq!(v.len(), 2, "{v:?}");
    }
}
