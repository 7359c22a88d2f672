//! Error-code conformance analysis.
//!
//! Every method in the flux-proto registry declares the error codes its
//! handler may return (`MethodSpec::declared_errors`). This pass checks
//! the implementation against the declaration in both directions:
//!
//! 1. **Undeclared production** — a dispatch arm whose reachable code
//!    mentions an `errnum::` literal not declared for any variant the
//!    arm handles. Reachability is the arm text plus *two hops* of
//!    same-file callees (file-local and depth-limited on purpose:
//!    name-merging across a whole crate would attribute one module's
//!    codes to another's arms, and a full closure attributes every code
//!    of shared machinery — the walk engine, the retry pumps — to every
//!    arm that touches it, even when the shared path is serving some
//!    *other* request's parked reply). Arms handling only `OneWay`
//!    variants are skipped: there is no reply channel to produce a code
//!    on.
//! 2. **Unreachable declaration** — a declared code that appears
//!    nowhere in the arm's crate-wide closure, the dispatch function's
//!    closure, or the file's response-plumbing functions (`*response*`),
//!    and no *relay* exists in those scopes. A relay is a
//!    `respond_err(`/`error_response_to(` call whose arguments carry no
//!    `errnum::` literal — the handler forwards an upstream or computed
//!    code the linter cannot enumerate, so unproven declarations are
//!    given the benefit of the doubt.
//!
//! Mentions in comparisons (`== errnum::EINVAL`, `!= errnum::ENOENT`)
//! and match patterns (`errnum::ENOENT =>`) are *reads* of a reply's
//! code, not productions, and never count. `ENOSYS` is the dispatch
//! layer's code for an undecodable method and is excluded from both
//! directions — every service declares it implicitly (see
//! `Service::declared_surface`).
//!
//! Waive a finding with `// flux-lint: allow(error-codes)` on or just
//! above the arm.

use crate::analysis::{calls_in, line_of, match_delim, waiver_status, FnDef, ParsedFile};
use crate::{Rule, Violation};
use flux_proto::MethodKind;
use flux_wire::errnum;
use std::collections::{BTreeMap, BTreeSet};

/// Waiver comment token (checked on raw lines).
const WAIVER: &str = "flux-lint: allow(error-codes)";

/// The errno vocabulary the wire crate defines, for mention parsing.
const CODES: &[(&str, u32)] = &[
    ("EPERM", errnum::EPERM),
    ("ENOENT", errnum::ENOENT),
    ("EINTR", errnum::EINTR),
    ("EIO", errnum::EIO),
    ("EAGAIN", errnum::EAGAIN),
    ("ENOMEM", errnum::ENOMEM),
    ("ENOTDIR", errnum::ENOTDIR),
    ("EISDIR", errnum::EISDIR),
    ("EINVAL", errnum::EINVAL),
    ("ENAMETOOLONG", errnum::ENAMETOOLONG),
    ("ENOSYS", errnum::ENOSYS),
    ("ETIMEDOUT", errnum::ETIMEDOUT),
    ("EHOSTDOWN", errnum::EHOSTDOWN),
    ("ESTALE", errnum::ESTALE),
];

/// Spelled-out name of a code, for diagnostics.
fn code_name(code: u32) -> String {
    CODES
        .iter()
        .find(|(_, v)| *v == code)
        .map_or_else(|| code.to_string(), |(n, _)| format!("errnum::{n}"))
}

/// `(service, normalized method) → (kind, declared codes)` from the
/// proto registry.
fn declared_table() -> BTreeMap<(String, String), (MethodKind, &'static [u32])> {
    let mut map = BTreeMap::new();
    for spec in flux_proto::methods() {
        let mut parts = spec.topic.splitn(2, '.');
        let (Some(service), Some(method)) = (parts.next(), parts.next()) else { continue };
        map.insert((service.to_owned(), normalize(method)), (spec.kind, spec.declared_errors));
    }
    map
}

/// A call-graph scope: per-function mention sets, call edges, and relay
/// flags, closed under the call relation by [`Graph::fixpoint`].
/// Functions are keyed by bare name; same-name functions merge (safe in
/// the direction each caller uses this for — see module docs).
#[derive(Default)]
struct Graph {
    names: BTreeSet<String>,
    mention: BTreeMap<String, BTreeSet<u32>>,
    /// Pre-closure per-function mention sets, for depth-limited walks.
    direct: BTreeMap<String, BTreeSet<u32>>,
    relay: BTreeSet<String>,
    calls: BTreeMap<String, BTreeSet<String>>,
}

impl Graph {
    fn add_fn(&mut self, name: &str, body: &str) {
        self.mention.entry(name.to_owned()).or_default().extend(mentions(body));
        if has_relay(body) {
            self.relay.insert(name.to_owned());
        }
        self.names.insert(name.to_owned());
    }

    /// Resolves call edges (after all functions are added) and closes
    /// mention sets and relay flags over the call graph.
    fn close(&mut self, bodies: &[(String, String)]) {
        self.direct = self.mention.clone();
        for (name, body) in bodies {
            let callees = calls_in(body, &self.names);
            self.calls.entry(name.clone()).or_default().extend(callees);
        }
        loop {
            let mut changed = false;
            let keys: Vec<String> = self.calls.keys().cloned().collect();
            for key in keys {
                let callees = self.calls[&key].clone();
                let mut add: BTreeSet<u32> = BTreeSet::new();
                let mut relay = false;
                for callee in &callees {
                    if let Some(set) = self.mention.get(callee) {
                        add.extend(set.iter().copied());
                    }
                    relay |= self.relay.contains(callee);
                }
                let mine = self.mention.entry(key.clone()).or_default();
                for code in add {
                    changed |= mine.insert(code);
                }
                if relay && self.relay.insert(key) {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Depth-limited production set of a free-standing text (an arm
    /// body): its own mentions plus two hops of callees' *direct*
    /// mentions. The horizon keeps shared deep machinery (walk engine,
    /// retry pumps) from being attributed to every arm that enters it.
    fn of_text_depth2(&self, text: &str) -> BTreeSet<u32> {
        let mut set = mentions(text);
        for c1 in calls_in(text, &self.names) {
            set.extend(self.direct.get(&c1).into_iter().flatten().copied());
            for c2 in self.calls.get(&c1).into_iter().flatten() {
                set.extend(self.direct.get(c2).into_iter().flatten().copied());
            }
        }
        set
    }

    /// Mention closure of a free-standing text (an arm body): its own
    /// mentions plus the closed sets of every function it calls.
    fn of_text(&self, text: &str) -> (BTreeSet<u32>, bool) {
        let mut set = mentions(text);
        let mut relay = has_relay(text);
        for callee in calls_in(text, &self.names) {
            if let Some(s) = self.mention.get(&callee) {
                set.extend(s.iter().copied());
            }
            relay |= self.relay.contains(&callee);
        }
        (set, relay)
    }

    fn of_fn(&self, name: &str) -> (BTreeSet<u32>, bool) {
        (
            self.mention.get(name).cloned().unwrap_or_default(),
            self.relay.contains(name),
        )
    }
}

/// `errnum::NAME` literals produced (not read) by `text`.
fn mentions(text: &str) -> BTreeSet<u32> {
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(p) = text[from..].find("errnum::") {
        let abs = from + p;
        let name_start = abs + "errnum::".len();
        from = name_start;
        let name_end = text[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(text.len(), |e| name_start + e);
        let Some(&(_, code)) = CODES.iter().find(|(n, _)| *n == &text[name_start..name_end])
        else {
            continue;
        };
        // Reads, not productions: comparisons and match patterns.
        let before = text[..abs].trim_end();
        if before.ends_with("==") || before.ends_with("!=") {
            continue;
        }
        let after = text[name_end..].trim_start();
        if after.starts_with("=>") || after.starts_with("==") || after.starts_with("!=") {
            continue;
        }
        out.insert(code);
    }
    out
}

/// A respond/error call whose arguments carry no `errnum::` literal:
/// the code comes from upstream and cannot be enumerated statically.
fn has_relay(text: &str) -> bool {
    for tok in [".respond_err(", "error_response_to("] {
        let mut from = 0;
        while let Some(p) = text[from..].find(tok) {
            let open = from + p + tok.len() - 1;
            from = open + 1;
            let args_end = match_delim(text.as_bytes(), open)
                .unwrap_or(text.len());
            if !text[open..args_end].contains("errnum::") {
                return true;
            }
        }
    }
    false
}

/// Normalized variant names mentioned in an arm pattern.
fn variants_in(pattern: &str, enum_name: &str) -> Vec<String> {
    let needle = format!("{enum_name}::");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = pattern[from..].find(&needle) {
        let vstart = from + p + needle.len();
        let vend = pattern[vstart..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(pattern.len(), |e| vstart + e);
        out.push(normalize(&pattern[vstart..vend]));
        from = vend;
    }
    out
}

/// One `match <Svc>Method::from_method(..) { .. }` site.
struct DispatchMatch {
    /// Lowercased service name (`KvsMethod` → `kvs`).
    service: String,
    /// Enum name (`KvsMethod`), for variant extraction from patterns.
    enum_name: String,
    /// Interior span of the match block.
    block: (usize, usize),
}

/// Finds dispatch matches inside one function body.
fn find_dispatch_matches(blanked: &str, f: &FnDef) -> Vec<DispatchMatch> {
    const NEEDLE: &str = "Method::from_method";
    let body = &blanked[f.body.0..f.body.1];
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = body[from..].find(NEEDLE) {
        let abs = f.body.0 + from + p;
        from += p + NEEDLE.len();
        // Enum name: the identifier run ending at the needle.
        let mut start = abs;
        while start > 0
            && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_')
        {
            start -= 1;
        }
        let enum_name = format!("{}Method", &blanked[start..abs]);
        let service = blanked[start..abs].to_ascii_lowercase();
        if service.is_empty() {
            continue;
        }
        // Must be the scrutinee of a `match`: a `match` keyword earlier
        // on the same statement, with no intervening brace.
        let lead = &blanked[f.body.0..start];
        let Some(mpos) = lead.rfind("match ") else { continue };
        if lead[mpos..].contains('{') {
            continue;
        }
        // The match block opens at the next top-level `{`.
        let mut j = abs;
        let mut ok = None;
        while j < f.body.1 {
            match bytes[j] {
                b'(' | b'[' => match match_delim(bytes, j) {
                    Some(end) => j = end,
                    None => break,
                },
                b'{' => {
                    if let Some(end) = match_delim(bytes, j) {
                        ok = Some((j + 1, end - 1));
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        if let Some(block) = ok {
            out.push(DispatchMatch { service, enum_name, block });
        }
    }
    out
}

/// One arm of a match block: pattern text plus either a block body or
/// an expression body.
struct Arm {
    pattern: String,
    /// Byte offset of the pattern start (for diagnostics).
    at: usize,
    /// Block-body interior span, if the body is `{ .. }`.
    block: Option<(usize, usize)>,
    /// Expression body text otherwise.
    expr: String,
}

/// Splits a match block interior into arms. Arms are `pattern => body`
/// where body is a block or an expression ending at a top-level `,`.
fn split_arms(blanked: &str, span: (usize, usize)) -> Vec<Arm> {
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        // Pattern: up to `=>` at top level.
        let pat_start = i;
        let mut pat_end = None;
        while i < span.1 {
            match bytes[i] {
                b'(' | b'[' | b'{' => {
                    i = match match_delim(bytes, i) {
                        Some(end) => end,
                        None => span.1,
                    }
                }
                b'=' if bytes.get(i + 1) == Some(&b'>') => {
                    pat_end = Some(i);
                    i += 2;
                    break;
                }
                _ => i += 1,
            }
        }
        let Some(pat_end) = pat_end else { break };
        let pattern = blanked[pat_start..pat_end].trim().to_owned();
        // Body: skip whitespace, then block or expression.
        while i < span.1 && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i < span.1 && bytes[i] == b'{' {
            let end = match match_delim(bytes, i) {
                Some(end) => end,
                None => span.1,
            };
            out.push(Arm {
                pattern,
                at: pat_start,
                block: Some((i + 1, end.saturating_sub(1))),
                expr: String::new(),
            });
            i = end;
            if i < span.1 && bytes[i] == b',' {
                i += 1;
            }
        } else {
            let expr_start = i;
            while i < span.1 {
                match bytes[i] {
                    b'(' | b'[' | b'{' => {
                        i = match match_delim(bytes, i) {
                            Some(end) => end,
                            None => span.1,
                        }
                    }
                    b',' => break,
                    _ => i += 1,
                }
            }
            out.push(Arm {
                pattern,
                at: pat_start,
                block: None,
                expr: blanked[expr_start..i].to_owned(),
            });
            if i < span.1 {
                i += 1; // past the comma
            }
        }
    }
    out
}

/// Lowercases and strips separators so variant names and topic method
/// parts meet in the middle (`FenceUp` == `fence.up` == `fenceup`).
fn normalize(s: &str) -> String {
    s.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
}

/// Runs the pass over the shared parsed-file cache.
pub(crate) fn check_error_codes(files: &[ParsedFile]) -> Vec<Violation> {
    let declared = declared_table();
    let mut out = Vec::new();

    // Crate-wide graphs (for reachability, direction 2) and file-local
    // graphs (for production, direction 1).
    let mut crate_bodies: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for pf in files {
        let bodies = crate_bodies.entry(pf.crate_name().to_owned()).or_default();
        for f in &pf.fns {
            bodies.push((f.name.clone(), pf.stripped[f.body.0..f.body.1].to_owned()));
        }
    }
    let mut crate_graphs: BTreeMap<String, Graph> = BTreeMap::new();
    for (krate, bodies) in &crate_bodies {
        let mut g = Graph::default();
        for (name, body) in bodies {
            g.add_fn(name, body);
        }
        g.close(bodies);
        crate_graphs.insert(krate.clone(), g);
    }

    for pf in files {
        let crate_g = &crate_graphs[pf.crate_name()];
        let mut file_g = Graph::default();
        let file_bodies: Vec<(String, String)> = pf
            .fns
            .iter()
            .map(|f| (f.name.clone(), pf.stripped[f.body.0..f.body.1].to_owned()))
            .collect();
        for (name, body) in &file_bodies {
            file_g.add_fn(name, body);
        }
        file_g.close(&file_bodies);

        // Response-plumbing scope for direction 2: codes a handler
        // produces asynchronously (walk steps, retry pumps) surface in
        // functions reached from the file's `*response*` entry points.
        let mut resp_codes: BTreeSet<u32> = BTreeSet::new();
        let mut resp_relay = false;
        for f in &pf.fns {
            if f.name.contains("response") {
                let (set, relay) = crate_g.of_fn(&f.name);
                resp_codes.extend(set);
                resp_relay |= relay;
            }
        }

        let raw_lines: Vec<&str> = pf.raw.lines().collect();
        for f in &pf.fns {
            if !(f.sig.contains("Ctx") || f.sig.contains("Broker")) {
                continue; // decoders cannot answer: only responders are checked
            }
            let (dispatch_codes, dispatch_relay) = crate_g.of_fn(&f.name);
            for m in find_dispatch_matches(&pf.stripped, f) {
                for arm in split_arms(&pf.stripped, m.block) {
                    check_arm(
                        pf,
                        &raw_lines,
                        &m,
                        &arm,
                        &declared,
                        &file_g,
                        crate_g,
                        (&dispatch_codes, dispatch_relay),
                        (&resp_codes, resp_relay),
                        &mut out,
                    );
                }
            }
        }
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Both directions for one dispatch arm.
#[allow(clippy::too_many_arguments)]
fn check_arm(
    pf: &ParsedFile,
    raw_lines: &[&str],
    m: &DispatchMatch,
    arm: &Arm,
    declared: &BTreeMap<(String, String), (MethodKind, &'static [u32])>,
    file_g: &Graph,
    crate_g: &Graph,
    dispatch: (&BTreeSet<u32>, bool),
    response: (&BTreeSet<u32>, bool),
    out: &mut Vec<Violation>,
) {
    let arm_text = match arm.block {
        Some(span) => pf.stripped[span.0..span.1].to_owned(),
        None => arm.expr.clone(),
    };
    // `arm.at` points just past the previous arm's comma (usually a
    // newline); anchor the diagnostic — and the waiver window — on the
    // pattern's first real character.
    let pat_at = arm.at
        + pf.stripped[arm.at..]
            .find(|c: char| !c.is_whitespace())
            .unwrap_or(0);
    let line = line_of(&pf.stripped, pat_at);
    if waived(raw_lines, line) {
        return;
    }
    let variants = variants_in(&arm.pattern, &m.enum_name);
    let is_none_arm = arm.pattern == "None";
    if variants.is_empty() && !is_none_arm {
        return; // wildcard / binding-only arm: variant set unknown
    }

    // Declared union (and kinds) over the variants this arm handles.
    let mut declared_union: BTreeSet<u32> = BTreeSet::new();
    let mut known_variant = is_none_arm;
    let mut all_one_way = !is_none_arm;
    for v in &variants {
        if let Some((kind, codes)) = declared.get(&(m.service.clone(), v.clone())) {
            declared_union.extend(codes.iter().copied());
            known_variant = true;
            all_one_way &= *kind == MethodKind::OneWay;
        }
    }
    if !known_variant {
        return; // registry drift: rustc's exhaustiveness check owns that
    }

    // Direction 1: undeclared production (file-local, two call hops).
    // OneWay-only arms have no reply channel to produce a code on.
    if !all_one_way {
        let produced = file_g.of_text_depth2(&arm_text);
        for code in &produced {
            if *code == errnum::ENOSYS || declared_union.contains(code) {
                continue;
            }
            out.push(Violation {
                file: pf.rel.clone(),
                line,
                rule: Rule::ErrorCodes,
                message: format!(
                    "arm `{}` can produce {} which no variant it handles declares — add it \
                     to `declared_errors` in the proto registry or stop producing it",
                    compact(&arm.pattern),
                    code_name(*code),
                ),
            });
        }
    }

    // Direction 2: unreachable declaration (crate-wide closure, plus
    // the dispatch function and the file's response plumbing).
    let (arm_codes, arm_relay) = crate_g.of_text(&arm_text);
    let relay = arm_relay || dispatch.1 || response.1;
    if relay {
        return; // forwarded upstream codes cover unproven declarations
    }
    for v in &variants {
        let Some((kind, codes)) = declared.get(&(m.service.clone(), v.clone())) else {
            continue;
        };
        if *kind == MethodKind::OneWay {
            continue;
        }
        for code in *codes {
            if *code == errnum::ENOSYS
                || arm_codes.contains(code)
                || dispatch.0.contains(code)
                || response.0.contains(code)
            {
                continue;
            }
            out.push(Violation {
                file: pf.rel.clone(),
                line,
                rule: Rule::ErrorCodes,
                message: format!(
                    "`{}.{v}` declares {} but no path in its handler produces it — \
                     remove it from `declared_errors` or produce it",
                    m.service,
                    code_name(*code),
                ),
            });
        }
    }
}

/// Is there a waiver on `line` or up to four lines above it? This pass
/// does not demand a justification (a declaration mismatch is visible
/// in the registry itself), so any annotation counts.
fn waived(raw_lines: &[&str], line: usize) -> bool {
    waiver_status(raw_lines, line, WAIVER, 4).is_some()
}

/// Collapses runs of whitespace for single-line diagnostics.
fn compact(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        check_error_codes(&[ParsedFile::parse("crates/modules/src/demo.rs", src)])
    }

    #[test]
    fn conforming_handler_is_clean() {
        // barrier.enter declares [EINVAL]: producing it satisfies both
        // directions; ENOSYS in the None arm is always out of scope.
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match BarrierMethod::from_method(msg.header.topic.method()) {
        Some(BarrierMethod::Enter) => {
            let Some(n) = msg.payload.get("nprocs") else {
                ctx.respond_err(msg, errnum::EINVAL);
                return;
            };
            self.enter(ctx, msg, n);
        }
        None => ctx.respond_err(msg, errnum::ENOSYS),
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn undeclared_code_is_flagged() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match BarrierMethod::from_method(msg.header.topic.method()) {
        Some(BarrierMethod::Enter) => {
            ctx.respond_err(msg, errnum::EPERM);
        }
        None => ctx.respond_err(msg, errnum::ENOSYS),
    }
}
"#;
        let v = run(src);
        // EPERM is undeclared (direction 1) and the declared EINVAL is
        // never produced (direction 2).
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("EPERM")), "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("EINVAL")), "{v:?}");
    }

    #[test]
    fn production_through_a_helper_is_seen() {
        let src = r#"
impl M {
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match BarrierMethod::from_method(msg.header.topic.method()) {
            Some(BarrierMethod::Enter) => self.enter(ctx, msg),
            None => ctx.respond_err(msg, errnum::ENOSYS),
        }
    }
    fn enter(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        ctx.respond_err(msg, errnum::EINVAL);
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relay_covers_unprovable_declarations() {
        // resvc.alloc declares EINVAL and EAGAIN; the handler forwards
        // an upstream code (`respond_err(msg, e)`), so neither needs a
        // literal mention.
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match ResvcMethod::from_method(msg.header.topic.method()) {
        Some(ResvcMethod::Alloc) => match self.alloc(msg) {
            Ok(v) => ctx.respond(msg, v),
            Err(e) => ctx.respond_err(msg, e),
        },
        None => ctx.respond_err(msg, errnum::ENOSYS),
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comparisons_are_reads_not_productions() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match BarrierMethod::from_method(msg.header.topic.method()) {
        Some(BarrierMethod::Enter) => {
            if msg.header.errnum == errnum::ESTALE {
                self.resync();
            }
            ctx.respond_err(msg, errnum::EINVAL);
        }
        None => ctx.respond_err(msg, errnum::ENOSYS),
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "ESTALE read must not count as produced: {v:?}");
    }

    #[test]
    fn waiver_suppresses_the_arm() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match BarrierMethod::from_method(msg.header.topic.method()) {
        // flux-lint: allow(error-codes)
        Some(BarrierMethod::Enter) => {
            ctx.respond_err(msg, errnum::EPERM);
        }
        None => ctx.respond_err(msg, errnum::ENOSYS),
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unreachable_declaration_via_response_plumbing_is_ok() {
        // kvs.load declares ENOENT; the code surfaces in the response
        // path, not the request arm.
        let src = r#"
impl M {
    fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match KvsMethod::from_method(msg.header.topic.method()) {
            Some(KvsMethod::Load) => {
                if msg.payload.get("blob").is_none() {
                    ctx.respond_err(msg, errnum::EINVAL);
                    return;
                }
                self.pending.insert(msg.header.id, msg.clone());
            }
            None => ctx.respond_err(msg, errnum::ENOSYS),
        }
    }
    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if let Some(waiter) = self.pending.remove(&msg.header.id) {
            ctx.respond_err(&waiter, errnum::ENOENT);
        }
    }
}
"#;
        let v = run(src);
        assert!(v.is_empty(), "{v:?}");
    }
}
