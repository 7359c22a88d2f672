//! Reply-obligation dataflow lint.
//!
//! Every module dispatch function matches on `<Svc>Method::from_method`
//! and must answer request/response methods on *every* path: an RPC arm
//! that can fall through or `return` without responding leaves a client
//! waiting forever. This lint finds those dispatch matches, looks each
//! variant's kind up in the [`flux_proto`] registry, and walks the arm
//! bodies with a three-valued outcome:
//!
//! * **Discharged** — a respond/error call (or a call to a local helper
//!   that always discharges, or to a *taker* in a sibling file of the
//!   crate — see [`check_reply_all`] — or parking the request via
//!   `<msg>.clone()` for a later reply) happens on this path.
//! * **Escaped** — a path leaves the function without discharging
//!   (`return` before any respond).
//! * **Neutral** — nothing decided yet; scanning continues.
//!
//! An obligated arm whose body ends `Neutral` or `Escaped` is a
//! violation. `OneWay` and `Stream` arms carry no obligation.
//! Intentional drops (duplicate suppression) are waived with
//! `// flux-lint: allow(reply)` on or just above the escaping line.
//!
//! Only functions with a responder context (a `Ctx`/`Broker`-typed
//! parameter) are analyzed — pure decoders that match on
//! `from_method` to translate replies are out of scope.

use crate::analysis::{find_word, line_of, match_delim, split_stmts, FnDef, ParsedFile, Stmt};
use crate::{Rule, Violation};
use flux_proto::MethodKind;
use std::collections::{BTreeMap, BTreeSet};

/// Waiver comment for intentional non-replies (checked on raw lines).
const WAIVER: &str = "flux-lint: allow(reply)";

/// Path outcome for one statement or block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// A reply was produced (or parked) on every path through here.
    Discharged,
    /// Nothing decided; later statements may still discharge.
    Neutral,
    /// A path exits the function without a reply. Carries the byte
    /// offset of the escape site for diagnostics and waiver lookup.
    Escaped(usize),
}

/// Tokens whose presence in a statement discharges the obligation.
/// `response_to(` also covers `error_response_to(`; the `respond`
/// prefix covers `respond`, `respond_err`, and `respond_version`-style
/// helpers resolved via the fixpoint below.
const DISCHARGE: &[&str] = &[".respond(", ".respond_err(", "route_response(", "response_to("];

/// Per-file analysis context.
struct FileCtx<'a> {
    rel: &'a str,
    raw_lines: Vec<&'a str>,
    blanked: &'a str,
    kinds: &'a BTreeMap<(String, String), MethodKind>,
    /// Local helper functions known to discharge on every path.
    discharging: BTreeSet<String>,
}

/// Builds the `(service, normalized method) → kind` table from the
/// proto registry. `kvs.fence.up` → `("kvs", "fenceup")`, matching the
/// `FenceUp` variant normalized the same way.
pub(crate) fn kind_table() -> BTreeMap<(String, String), MethodKind> {
    let mut map = BTreeMap::new();
    for spec in flux_proto::methods() {
        let mut parts = spec.topic.splitn(2, '.');
        let (Some(service), Some(method)) = (parts.next(), parts.next()) else { continue };
        map.insert((service.to_owned(), normalize(method)), spec.kind);
    }
    map
}

/// Lowercases and strips separators so variant names and topic method
/// parts meet in the middle (`FenceUp` == `fence.up` == `fenceup`).
pub(crate) fn normalize(s: &str) -> String {
    s.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
}

/// Runs the lint over one parsed file, on its own (fixtures, tests).
pub(crate) fn check_reply(
    pf: &ParsedFile,
    kinds: &BTreeMap<(String, String), MethodKind>,
) -> Vec<Violation> {
    check_file(pf, kinds, &BTreeSet::new())
}

/// Runs the lint over a whole tree. A dispatcher may hand a request to
/// a *taker* — a function in a sibling file of the same crate whose
/// signature carries both the responder context and the request, and
/// whose body discharges on every path (a role struct's entry point).
/// Takers are found per crate by iterating the per-file helper
/// classification to a fixpoint, since one taker may rely on another
/// (a push handler answering through the slots' `respond_version`). A
/// name some definition of which does not discharge is never a taker.
pub(crate) fn check_reply_all(
    files: &[ParsedFile],
    kinds: &BTreeMap<(String, String), MethodKind>,
) -> Vec<Violation> {
    let mut takers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for _ in 0..10 {
        let mut next: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut refuted: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for pf in files {
            let known = takers.get(pf.crate_name()).cloned().unwrap_or_default();
            let ctx = classify(pf, kinds, &known);
            for f in &pf.fns {
                if !(is_responder(&f.sig) && f.sig.contains("Message")) {
                    continue;
                }
                let side = if ctx.discharging.contains(&f.name) { &mut next } else { &mut refuted };
                side.entry(pf.crate_name().to_owned()).or_default().insert(f.name.clone());
            }
        }
        for (krate, bad) in &refuted {
            if let Some(good) = next.get_mut(krate) {
                good.retain(|name| !bad.contains(name));
            }
        }
        if next == takers {
            break;
        }
        takers = next;
    }
    let none = BTreeSet::new();
    files.iter().flat_map(|pf| check_file(pf, kinds, takers.get(pf.crate_name()).unwrap_or(&none))).collect()
}

/// Only responders are analyzed: a Ctx/Broker-typed parameter means the
/// function can actually answer. Decoders are skipped.
fn is_responder(sig: &str) -> bool {
    sig.contains("Ctx") || sig.contains("Broker")
}

/// Classifies `pf`'s helpers, treating `takers` (names defined in other
/// files; a local definition of the same name governs) as discharging.
fn classify<'a>(
    pf: &'a ParsedFile,
    kinds: &'a BTreeMap<(String, String), MethodKind>,
    takers: &BTreeSet<String>,
) -> FileCtx<'a> {
    let local: BTreeSet<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
    let mut ctx = FileCtx {
        rel: &pf.rel,
        raw_lines: pf.raw.lines().collect(),
        blanked: &pf.stripped,
        kinds,
        discharging: takers.iter().filter(|t| !local.contains(t.as_str())).cloned().collect(),
    };
    ctx.helper_fixpoint(&pf.fns);
    ctx
}

fn check_file(
    pf: &ParsedFile,
    kinds: &BTreeMap<(String, String), MethodKind>,
    takers: &BTreeSet<String>,
) -> Vec<Violation> {
    let ctx = classify(pf, kinds, takers);
    let mut out = Vec::new();
    for f in &pf.fns {
        if !is_responder(&f.sig) {
            continue;
        }
        let msg_param = message_param(&f.sig);
        for m in find_dispatch_matches(&pf.stripped, f) {
            out.extend(ctx.check_match(&m, &msg_param));
        }
    }
    out
}

/// One `match <Svc>Method::from_method(..) { .. }` site.
pub(crate) struct DispatchMatch {
    /// Lowercased service name (`KvsMethod` → `kvs`).
    pub service: String,
    /// Enum name (`KvsMethod`), for variant extraction from patterns.
    pub enum_name: String,
    /// Interior span of the match block.
    pub block: (usize, usize),
}

/// Finds dispatch matches inside one function body.
pub(crate) fn find_dispatch_matches(blanked: &str, f: &FnDef) -> Vec<DispatchMatch> {
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
pub(crate) struct Arm {
    pub pattern: String,
    /// Byte offset of the pattern start (for diagnostics).
    pub at: usize,
    /// Block-body interior span, if the body is `{ .. }`.
    pub block: Option<(usize, usize)>,
    /// Expression body text otherwise.
    pub expr: String,
}

/// Splits a match block interior into arms. Arms are `pattern => body`
/// where body is a block or an expression ending at a top-level `,`.
pub(crate) fn split_arms(blanked: &str, span: (usize, usize)) -> Vec<Arm> {
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

impl FileCtx<'_> {
    /// Iterates helper classification to a fixpoint: a helper
    /// discharges if its whole body evaluates `Discharged`, possibly
    /// via other discharging helpers.
    fn helper_fixpoint(&mut self, fns: &[FnDef]) {
        for _ in 0..10 {
            let mut changed = false;
            for f in fns {
                if self.discharging.contains(&f.name) {
                    continue;
                }
                let msg_param = message_param(&f.sig);
                if self.eval_block(f.body, &msg_param) == Outcome::Discharged {
                    changed |= self.discharging.insert(f.name.clone());
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Checks one dispatch match, returning violations for obligated
    /// arms that do not discharge.
    fn check_match(&self, m: &DispatchMatch, msg_param: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        for arm in split_arms(self.blanked, m.block) {
            if !self.arm_obligated(m, &arm) {
                continue;
            }
            let outcome = match arm.block {
                Some(span) => self.eval_block(span, msg_param),
                None => self.eval_text(&arm.expr, msg_param, arm.at),
            };
            let (line, what) = match outcome {
                Outcome::Discharged => continue,
                Outcome::Neutral => (
                    line_of(self.blanked, arm.at),
                    "can fall through without a reply".to_owned(),
                ),
                Outcome::Escaped(site) => (
                    line_of(self.blanked, site),
                    "returns without a reply".to_owned(),
                ),
            };
            if self.waived(line) || self.waived(line_of(self.blanked, arm.at)) {
                continue;
            }
            out.push(Violation {
                file: self.rel.to_owned(),
                line,
                rule: Rule::ReplyObligation,
                message: format!(
                    "arm `{}` of the {} dispatch {what}; every request/response \
                     method must be answered on all paths",
                    compact_ws(&arm.pattern),
                    m.service
                ),
            });
        }
        out
    }

    /// An arm is obligated when it handles an undecodable method
    /// (`None` must get ENOSYS) or any request/response variant.
    fn arm_obligated(&self, m: &DispatchMatch, arm: &Arm) -> bool {
        if arm.pattern == "None" {
            return true;
        }
        let needle = format!("{}::", m.enum_name);
        let mut any_rpc = false;
        let mut from = 0;
        while let Some(p) = arm.pattern[from..].find(&needle) {
            let vstart = from + p + needle.len();
            let vend = arm.pattern[vstart..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(arm.pattern.len(), |e| vstart + e);
            let variant = &arm.pattern[vstart..vend];
            let key = (m.service.clone(), normalize(variant));
            // Unknown variants (registry drift) are treated as RPC so
            // drift fails loudly rather than silently unlinting.
            any_rpc |=
                self.kinds.get(&key).copied().unwrap_or(MethodKind::Rpc) == MethodKind::Rpc;
            from = vend;
        }
        any_rpc
    }

    /// Evaluates a block interior statement by statement.
    fn eval_block(&self, span: (usize, usize), msg_param: &str) -> Outcome {
        for stmt in split_stmts(self.blanked, span) {
            match self.eval_stmt(&stmt, msg_param) {
                Outcome::Discharged => return Outcome::Discharged,
                Outcome::Neutral => {}
                Outcome::Escaped(site) => {
                    // A waived escape is an intentional drop; scanning
                    // continues in case a later path discharges.
                    if self.waived(line_of(self.blanked, site)) {
                        continue;
                    }
                    return Outcome::Escaped(site);
                }
            }
        }
        Outcome::Neutral
    }

    /// Statement-level outcome rules.
    fn eval_stmt(&self, stmt: &Stmt, msg_param: &str) -> Outcome {
        let head = stmt.head();
        let is_let = head.starts_with("let ");
        let full = &self.blanked[stmt.full.0..stmt.full.1];

        // `let .. else { .. }`: the else-block must diverge; if it
        // discharges before diverging the obligation is met only on
        // that branch, so the statement as a whole stays Neutral. A
        // `let x = if .. else ..;` also puts `else` before its last
        // block, so require the right-hand side not to be a
        // control-flow expression.
        if is_let && !stmt.blocks.is_empty() {
            let before_last =
                stmt.segs.get(stmt.blocks.len() - 1).map(|s| s.trim_end()).unwrap_or("");
            let rhs = head.split_once('=').map(|(_, r)| r.trim_start()).unwrap_or("");
            let rhs_control = rhs.starts_with("if") || rhs.starts_with("match");
            if before_last.ends_with("else") && !rhs_control {
                let span = *stmt.blocks.last().expect("checked non-empty");
                return match self.eval_block(span, msg_param) {
                    Outcome::Discharged => Outcome::Neutral,
                    Outcome::Neutral => Outcome::Escaped(span.0),
                    esc => esc,
                };
            }
        }

        if !is_let && head.starts_with("if ") && !stmt.blocks.is_empty() {
            let mut all_discharged = true;
            for &span in &stmt.blocks {
                match self.eval_block(span, msg_param) {
                    Outcome::Discharged => {}
                    Outcome::Neutral => all_discharged = false,
                    esc @ Outcome::Escaped(_) => return esc,
                }
            }
            // Exhaustive only with a plain trailing `else` (the
            // segment *before* the last block; `segs` interleaves
            // around blocks, with trailing text after the last one).
            let exhaustive = stmt.blocks.len() >= 2
                && stmt
                    .segs
                    .get(stmt.blocks.len() - 1)
                    .map(|s| s.trim() == "else")
                    .unwrap_or(false);
            return if all_discharged && exhaustive {
                Outcome::Discharged
            } else {
                Outcome::Neutral
            };
        }

        if !is_let && head.starts_with("match ") && stmt.blocks.len() == 1 {
            let arms = split_arms(self.blanked, stmt.blocks[0]);
            if arms.is_empty() {
                return Outcome::Neutral;
            }
            let mut all_discharged = true;
            for arm in &arms {
                let o = match arm.block {
                    Some(span) => self.eval_block(span, msg_param),
                    None => self.eval_text(&arm.expr, msg_param, arm.at),
                };
                match o {
                    Outcome::Discharged => {}
                    Outcome::Neutral => all_discharged = false,
                    esc @ Outcome::Escaped(_) => return esc,
                }
            }
            // A match is exhaustive by construction; all arms
            // discharging means the statement discharges.
            return if all_discharged { Outcome::Discharged } else { Outcome::Neutral };
        }

        // Loops may run zero times: anything inside is Neutral at
        // best, but an escape inside still escapes.
        if !is_let
            && (head.starts_with("for ")
                || head.starts_with("while ")
                || head.starts_with("loop"))
        {
            for &span in &stmt.blocks {
                if let esc @ Outcome::Escaped(_) = self.eval_block(span, msg_param) {
                    return esc;
                }
            }
            return Outcome::Neutral;
        }

        // Plain statement (including `let` with an init expression).
        self.eval_text(full, msg_param, stmt.full.0)
    }

    /// Expression-level rules shared by plain statements and
    /// expression-bodied match arms.
    fn eval_text(&self, text: &str, msg_param: &str, at: usize) -> Outcome {
        if DISCHARGE.iter().any(|t| text.contains(t)) {
            return Outcome::Discharged;
        }
        // Parking the request for a later reply counts: the message is
        // cloned into a pending table.
        if !msg_param.is_empty() && text.contains(&format!("{msg_param}.clone()")) {
            return Outcome::Discharged;
        }
        // A call to a local helper that always discharges.
        for name in &self.discharging {
            if calls(text, name) {
                return Outcome::Discharged;
            }
        }
        if let Some(off) = find_word(text, "return") {
            // Point the escape site at the `return` itself so the
            // waiver lookup and the diagnostic land on the right line.
            return Outcome::Escaped(at + off);
        }
        Outcome::Neutral
    }

    /// Is there a waiver on `line` or the three lines above it?
    fn waived(&self, line: usize) -> bool {
        let lo = line.saturating_sub(4);
        (lo..line).any(|k| self.raw_lines.get(k).is_some_and(|l| l.contains(WAIVER)))
            || self.raw_lines.get(line - 1).is_some_and(|l| l.contains(WAIVER))
    }
}

/// True if `text` contains a call to `name` (word boundary before,
/// `(` after), in any of the bare / `self.` / `Self::` forms.
fn calls(text: &str, name: &str) -> bool {
    let pat = format!("{name}(");
    let mut from = 0;
    while let Some(p) = text[from..].find(&pat) {
        let abs = from + p;
        let boundary = abs == 0 || {
            let b = text.as_bytes()[abs - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if boundary && !text[..abs].trim_end().ends_with("fn") {
            return true;
        }
        from = abs + pat.len();
    }
    false
}

/// Name of the `&Message` parameter in a signature, or `"msg"`.
pub(crate) fn message_param(sig: &str) -> String {
    let Some(open) = sig.find('(') else { return "msg".into() };
    let params = &sig[open + 1..sig.rfind(')').unwrap_or(sig.len())];
    for param in params.split(',') {
        let mut halves = param.splitn(2, ':');
        let (Some(name), Some(ty)) = (halves.next(), halves.next()) else { continue };
        if ty.contains("Message") {
            return name.trim().trim_start_matches("mut ").to_owned();
        }
    }
    "msg".into()
}

/// Collapses runs of whitespace for single-line diagnostics.
fn compact_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut ws = false;
    for c in s.chars() {
        if c.is_whitespace() {
            ws = true;
        } else {
            if ws && !out.is_empty() {
                out.push(' ');
            }
            ws = false;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        check_reply(&ParsedFile::parse("crates/modules/src/demo.rs", src), &kind_table())
    }

    const OK: &str = r#"
impl Demo {
    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match KvsMethod::from_method(msg.header.topic.method()) {
            Some(KvsMethod::Get) => ctx.respond(msg, Value::object()),
            Some(KvsMethod::Put) => {
                if self.ready {
                    ctx.respond(msg, Value::object());
                } else {
                    ctx.respond_err(msg, 1);
                }
            }
            Some(KvsMethod::FenceUp) => self.absorb(msg),
            Some(KvsMethod::Commit) => {
                self.pending.insert(msg.header.id, msg.clone());
            }
            Some(KvsMethod::Stats) => self.reply_stats(ctx, msg),
            _ => {}
        }
    }
    fn reply_stats(&self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        ctx.respond(msg, self.stats());
    }
}
"#;

    #[test]
    fn a_taker_in_a_sibling_file_discharges_and_a_doubtful_one_does_not() {
        let dispatch = r#"
impl Demo {
    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        match KvsMethod::from_method(msg.header.topic.method()) {
            Some(KvsMethod::Get) => self.reads.lookup(ctx, msg),
            Some(KvsMethod::Load) => self.reads.maybe(ctx, msg),
            _ => {}
        }
    }
}
"#;
        let role = r#"
impl Reads {
    pub(crate) fn lookup(&mut self, ctx: &mut ModuleCtx<'_>, req: &Message) {
        if self.hit {
            self.slots.answer(ctx, req);
            return;
        }
        self.parked.push(req.clone());
    }
    pub(crate) fn maybe(&mut self, ctx: &mut ModuleCtx<'_>, req: &Message) {
        if self.hit {
            ctx.respond(req, Value::object());
        }
    }
    fn answer(&self, ctx: &mut ModuleCtx<'_>, req: &Message) {
        ctx.respond(req, Value::object());
    }
}
"#;
        let files = [
            ParsedFile::parse("crates/modules/src/demo.rs", dispatch),
            ParsedFile::parse("crates/modules/src/reads.rs", role),
        ];
        let v = check_reply_all(&files, &kind_table());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("KvsMethod::Load"), "{}", v[0]);
        // Alone, the dispatcher cannot see the taker at all.
        assert_eq!(check_reply(&files[0], &kind_table()).len(), 2);
    }

    #[test]
    fn discharged_arms_are_clean() {
        let v = run(OK);
        // The wildcard arm is not obligated (no variant named), and
        // every RPC arm discharges directly, via helper, or by parking.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn oneway_arms_carry_no_obligation() {
        // FenceUp is OneWay: `self.absorb(msg)` never responds and that
        // is fine (covered by OK above); an Rpc arm doing the same fails.
        let bad = OK.replace("Some(KvsMethod::Get) => ctx.respond(msg, Value::object()),", "Some(KvsMethod::Get) => self.absorb(msg),");
        let v = run(&bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("KvsMethod::Get"), "{}", v[0]);
    }

    #[test]
    fn early_return_without_reply_is_flagged() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Commit) => {
            if self.busy {
                return;
            }
            ctx.respond(msg, Value::object());
        }
        None => ctx.respond_err(msg, 38),
    }
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("returns without a reply"), "{}", v[0]);
    }

    #[test]
    fn waiver_permits_intentional_drop() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Commit) => {
            if self.duplicate(msg) {
                // flux-lint: allow(reply)
                return;
            }
            ctx.respond(msg, Value::object());
        }
        None => ctx.respond_err(msg, 38),
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn fallthrough_if_without_else_is_flagged() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Get) => {
            if self.ready {
                ctx.respond(msg, Value::object());
            }
        }
        None => ctx.respond_err(msg, 38),
    }
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("fall through"), "{}", v[0]);
    }

    #[test]
    fn none_arm_is_obligated() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Get) => ctx.respond(msg, Value::object()),
        None => {}
    }
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`None`"), "{}", v[0]);
    }

    #[test]
    fn decoders_without_ctx_are_skipped() {
        let src = r#"
fn decode_reply(msg: &Message) -> Reply {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Get) => Reply::Get,
        _ => Reply::Other,
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn let_else_that_discharges_then_diverges_is_fine() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Get) => {
            let Some(key) = msg.payload.get("key") else {
                ctx.respond_err(msg, 22);
                return;
            };
            ctx.respond(msg, self.lookup(key));
        }
        None => ctx.respond_err(msg, 38),
    }
}
"#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn let_else_that_silently_diverges_is_flagged() {
        let src = r#"
fn handle(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Get) => {
            let Some(key) = msg.payload.get("key") else {
                return;
            };
            ctx.respond(msg, self.lookup(key));
        }
        None => ctx.respond_err(msg, 38),
    }
}
"#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
