//! AST-lite scaffolding shared by the semantic lints: function
//! extraction, brace matching, and statement splitting over blanked
//! source text (see [`crate::token::blank`]).
//!
//! This is deliberately not a full parser. Blanked text has no brace or
//! paren noise from strings and comments, so delimiter matching is
//! exact; statement structure is recovered with a small set of rules
//! that cover the workspace's (rustfmt-shaped) code. The semantic lints
//! built on top are tuned to fail toward *false negatives*, never false
//! positives: anything the scaffolding cannot classify is treated as
//! plain text.

/// One source file, parsed once and shared by every pass. The tree
/// walk builds one `ParsedFile` per `.rs` file; both passes (block,
/// hotalloc) read from this cache instead of re-blanking and re-extracting per rule.
pub(crate) struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw source text (waivers and topic literals are read from here).
    pub raw: String,
    /// Blanked text (string/comment contents replaced with spaces) with
    /// `#[cfg(test)]` regions additionally blanked.
    pub stripped: String,
    /// Functions extracted from the stripped text (semantic passes skip
    /// test code).
    pub fns: Vec<FnDef>,
}

impl ParsedFile {
    /// Parses one file's content as if it lived at workspace-relative
    /// path `rel`.
    pub fn parse(rel: &str, raw: &str) -> ParsedFile {
        let blanked = crate::token::blank(raw);
        let stripped = strip_test_regions(&blanked);
        let fns = extract_fns(&stripped);
        ParsedFile { rel: rel.to_owned(), raw: raw.to_owned(), stripped, fns }
    }

    /// The crate this file belongs to (`crates/<name>/src/…` → `<name>`).
    pub fn crate_name(&self) -> &str {
        crate_of(&self.rel)
    }
}

/// `crates/<name>/src/...` → `<name>`; anything else gets the path's
/// second segment or the whole path.
pub(crate) fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => rel,
    }
}

/// Waiver lookup on raw lines: `Some(justified?)` if a `// flux-lint:
/// allow(<rule>)` annotation (the full `token`) covers `line` — on the
/// line itself or up to `reach` lines above — `None` otherwise.
/// Justified means real words follow the token: at least 8 alphanumeric
/// characters of explanation, so `allow(x) — see above` cannot pass as
/// a justification. Shared by both passes (block, hotalloc).
pub(crate) fn waiver_status(
    raw_lines: &[&str],
    line: usize,
    token: &str,
    reach: usize,
) -> Option<bool> {
    let lo = line.saturating_sub(reach + 1);
    for k in (lo..line).rev() {
        let Some(l) = raw_lines.get(k) else { continue };
        if let Some(pos) = l.find(token) {
            let after = l[pos + token.len()..]
                .trim_start_matches([' ', '—', '-', ':', '–'])
                .trim();
            return Some(after.chars().filter(|c| c.is_alphanumeric()).count() >= 8);
        }
    }
    None
}

/// `crate::fn` part of a definition key, for diagnostics.
pub(crate) fn display_key(key: &str) -> &str {
    key.split('@').next().unwrap_or(key)
}

/// Per-definition function index shared by the interprocedural passes
/// (block, hotalloc). Functions are keyed per *definition*
/// (`crate::name@file#i`) so trait impls sharing a name — `run_scripts`
/// on the sim and live transports — never merge their classification. A
/// call edge resolves to the unique same-file definition if there is
/// one, else to the unique crate-wide definition; an ambiguous name
/// resolves to nothing and is treated clean (false negatives over false
/// positives, like every semantic lint here).
pub(crate) struct DefIndex {
    /// Function names per crate, for [`calls_in`].
    crate_fns: std::collections::BTreeMap<String, std::collections::BTreeSet<String>>,
    /// (crate, fn name) → [(defining file, definition key)].
    by_name: std::collections::BTreeMap<(String, String), Vec<(String, String)>>,
}

impl DefIndex {
    /// The definition key of function `i` named `name` in `rel`.
    pub fn key(crate_name: &str, name: &str, rel: &str, i: usize) -> String {
        format!("{crate_name}::{name}@{rel}#{i}")
    }

    /// Builds the index over the shared parsed-file cache.
    pub fn build(files: &[ParsedFile]) -> DefIndex {
        let mut crate_fns: std::collections::BTreeMap<_, std::collections::BTreeSet<String>> =
            std::collections::BTreeMap::new();
        let mut by_name: std::collections::BTreeMap<(String, String), Vec<(String, String)>> =
            std::collections::BTreeMap::new();
        for pf in files {
            let crate_name = pf.crate_name().to_owned();
            crate_fns
                .entry(crate_name.clone())
                .or_default()
                .extend(pf.fns.iter().map(|f| f.name.clone()));
            for (i, f) in pf.fns.iter().enumerate() {
                let key = DefIndex::key(&crate_name, &f.name, &pf.rel, i);
                by_name
                    .entry((crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push((pf.rel.clone(), key));
            }
        }
        DefIndex { crate_fns, by_name }
    }

    /// Resolves a call to `name` in crate `krate` from `from_file` to a
    /// definition key, or `None` if ambiguous or unknown.
    pub fn resolve(&self, krate: &str, name: &str, from_file: &str) -> Option<String> {
        let cands = self.by_name.get(&(krate.to_owned(), name.to_owned()))?;
        let mut same_file = cands.iter().filter(|(rel, _)| rel == from_file);
        match (same_file.next(), same_file.next()) {
            (Some((_, key)), None) => Some(key.clone()),
            (None, _) if cands.len() == 1 => Some(cands[0].1.clone()),
            _ => None,
        }
    }

    /// Call edges out of one function: same-crate bare/`self.` calls
    /// plus cross-crate `flux_<crate>::…` qualified calls, resolved to
    /// `(definition key, 1-based call-site line)` pairs.
    pub fn edges(&self, pf: &ParsedFile, f: &FnDef) -> Vec<(String, usize)> {
        let crate_name = pf.crate_name();
        let body = &pf.stripped[f.body.0..f.body.1];
        let mut edges = Vec::new();
        if let Some(fn_names) = self.crate_fns.get(crate_name) {
            for callee in calls_in(body, fn_names) {
                let Some(callee_key) = self.resolve(crate_name, &callee, &pf.rel) else {
                    continue;
                };
                let at = body.find(&format!("{callee}(")).unwrap_or(0);
                edges.push((callee_key, line_of(&pf.stripped, f.body.0 + at)));
            }
        }
        for (callee_crate, callee_name, at) in qualified_calls(body) {
            let Some(callee_key) = self.resolve(&callee_crate, &callee_name, &pf.rel) else {
                continue;
            };
            edges.push((callee_key, line_of(&pf.stripped, f.body.0 + at)));
        }
        edges
    }
}

/// Cross-crate qualified calls: `flux_<crate>::…::name(` →
/// `(crate, name, byte offset)` for resolution and call-site lines.
pub(crate) fn qualified_calls(body: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = body[from..].find("flux_") {
        let abs = from + p;
        from = abs + 5;
        // Parse `flux_xyz::seg::…::name(`.
        let rest = &body[abs..];
        let Some(path_end) = rest.find(|c: char| {
            !(c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }) else {
            continue;
        };
        if rest.as_bytes().get(path_end) != Some(&b'(') {
            continue;
        }
        let path = &rest[..path_end];
        let mut segs = path.split("::");
        let Some(krate) = segs.next().and_then(|s| s.strip_prefix("flux_")) else { continue };
        let Some(name) = path.rsplit("::").next() else { continue };
        if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue; // type constructors / enum variants, not fn calls
        }
        // Crate dirs use `-` only for flux-mc / flux-lint; plain names
        // (wire, kvs, …) round-trip unchanged.
        let dir = if krate.contains('_') { krate.replace('_', "-") } else { krate.to_owned() };
        out.push((dir, name.to_owned(), abs));
    }
    out
}

/// Skips the `//` markers that blanked line comments keep (the comment
/// *text* is spaces, but the marker survives so raw/blanked offsets
/// stay aligned). Statement heads that begin with comment lines must
/// look past them before classifying.
pub(crate) fn skip_comment_markers(head: &str) -> &str {
    let mut t = head.trim_start();
    while let Some(rest) = t.strip_prefix("//") {
        t = rest.trim_start();
    }
    t
}

/// `let g = ...` → `Some("g")`; `let _ = ...` and non-let heads → `None`.
/// Blanked line comments keep their `//` marker, so leading comment
/// lines are skipped before the `let` is looked for.
pub(crate) fn binding_of(head: &str) -> Option<&str> {
    let t = skip_comment_markers(head);
    let rest = t.strip_prefix("let ")?;
    let name = rest.split(['=', ':']).next()?.trim().trim_start_matches("mut ").trim();
    (!name.is_empty() && name != "_" && !name.starts_with('_') && !name.contains('('))
        .then_some(name)
}

/// Names from `fn_names` that `text` calls (`name(`, `self.name(`,
/// `Self::name(`).
fn calls_in(text: &str, fn_names: &std::collections::BTreeSet<String>) -> Vec<String> {
    let mut out = Vec::new();
    for name in fn_names {
        let pat = format!("{name}(");
        let mut from = 0;
        while let Some(p) = text[from..].find(&pat) {
            let abs = from + p;
            let bytes = text.as_bytes();
            let before_ok = abs == 0 || {
                let b = bytes[abs - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            // A dotted call must be on `self`: `engine.run()` is some
            // *other* type's method that happens to share a name with a
            // function in this crate, not a call edge to it.
            let self_ok = abs == 0 || bytes[abs - 1] != b'.' || {
                let owner_end = abs - 1;
                let mut owner_start = owner_end;
                while owner_start > 0
                    && (bytes[owner_start - 1].is_ascii_alphanumeric()
                        || bytes[owner_start - 1] == b'_')
                {
                    owner_start -= 1;
                }
                &text[owner_start..owner_end] == "self"
            };
            // Skip definitions (`fn name(`) — only call sites count.
            let is_def = text[..abs].trim_end().ends_with("fn");
            if before_ok && self_ok && !is_def {
                out.push(name.clone());
                break;
            }
            from = abs + pat.len();
        }
    }
    out
}

/// One function found in a file.
pub(crate) struct FnDef {
    /// The function's name.
    pub name: String,
    /// Signature text (everything from `fn` to the body's `{`).
    pub sig: String,
    /// Byte span of the body *interior* (between the braces).
    pub body: (usize, usize),
}

/// Returns the position just past the delimiter matching the opener at
/// `open` (any of `(`/`[`/`{`), or `None` if unbalanced. Operates on
/// blanked text, so every delimiter is structural.
fn match_delim(bytes: &[u8], open: usize) -> Option<usize> {
    let (o, c) = match bytes[open] {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

/// True if `text[idx..]` starts a word-boundary occurrence of `word`.
fn word_at(bytes: &[u8], idx: usize, word: &str) -> bool {
    if !bytes[idx..].starts_with(word.as_bytes()) {
        return false;
    }
    let before_ok = idx == 0 || !(bytes[idx - 1].is_ascii_alphanumeric() || bytes[idx - 1] == b'_');
    let after = idx + word.len();
    let after_ok =
        after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
    before_ok && after_ok
}

/// Extracts every `fn` with a body from blanked source text. Trait
/// method declarations (ending in `;`) are skipped.
pub(crate) fn extract_fns(blanked: &str) -> Vec<FnDef> {
    let bytes = blanked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < bytes.len() {
        if !word_at(bytes, i, "fn") {
            i += 1;
            continue;
        }
        // Name runs from after `fn ` to the `(` or `<` of the signature.
        let name_start = i + 3;
        let Some(rel) = blanked[name_start..].find(['(', '<']) else { break };
        let name = blanked[name_start..name_start + rel].trim().to_owned();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            i += 2;
            continue;
        }
        // The body `{` is the first top-level brace after the signature;
        // a `;` first means a bodiless declaration.
        let mut j = name_start + rel;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => match match_delim(bytes, j) {
                    Some(end) => j = end,
                    None => break,
                },
                b'<' | b'>' | b'-' => j += 1, // generics / return arrow
                b';' => break,
                b'{' => {
                    if let Some(end) = match_delim(bytes, j) {
                        body = Some((j + 1, end - 1));
                    }
                    break;
                }
                _ => j += 1,
            }
        }
        if let Some(body) = body {
            out.push(FnDef { name, sig: blanked[i..body.0 - 1].to_owned(), body });
            i = body.0;
        } else {
            i = j.max(i + 2);
        }
    }
    out
}

/// One statement inside a block: its head text, then its top-level
/// brace blocks.
pub(crate) struct Stmt {
    /// The text before the statement's first top-level block.
    head: String,
    /// Byte spans (interiors) of the statement's top-level blocks.
    pub blocks: Vec<(usize, usize)>,
    /// Byte span of the whole statement.
    pub full: (usize, usize),
}

impl Stmt {
    /// The statement's leading text, trimmed.
    pub fn head(&self) -> &str {
        self.head.trim_start()
    }

    /// The statement's text with nested top-level block interiors
    /// blanked out (offsets preserved): tokens inside a nested block
    /// belong to the recursive walk, not to this statement, while
    /// tokens inside parens (closure bodies in call arguments) stay.
    pub fn own_text(&self, blanked: &str) -> String {
        let mut bytes = blanked.as_bytes()[self.full.0..self.full.1].to_vec();
        for &(a, b) in &self.blocks {
            for byte in &mut bytes[a - self.full.0..b - self.full.0] {
                *byte = b' ';
            }
        }
        String::from_utf8(bytes).unwrap_or_default()
    }
}

/// Keywords that make a brace block end a statement when it appears in
/// statement position (`if … { }`, `match … { }`, …).
const CONTROL: &[&str] = &["if", "match", "for", "while", "loop", "unsafe", "else"];

/// Splits a block interior into statements. Braces nested inside parens
/// or brackets (closure bodies in call arguments, array literals) are
/// treated as text, not structure.
pub(crate) fn split_stmts(blanked: &str, span: (usize, usize)) -> Vec<Stmt> {
    let bytes = blanked.as_bytes();
    let mut out: Vec<Stmt> = Vec::new();
    let mut i = span.0;
    let mut stmt_start = span.0;
    // Where the statement's head ends: its first top-level `{`, once seen.
    let mut head_end: Option<usize> = None;
    let mut blocks: Vec<(usize, usize)> = Vec::new();

    let flush = |out: &mut Vec<Stmt>,
                 blocks: &mut Vec<(usize, usize)>,
                 stmt_start: &mut usize,
                 head_end: &mut Option<usize>,
                 end: usize| {
        let blocks = std::mem::take(blocks);
        if !blanked[*stmt_start..end].trim().is_empty() {
            let head = blanked[*stmt_start..head_end.unwrap_or(end)].to_owned();
            out.push(Stmt { head, blocks, full: (*stmt_start, end) });
        }
        *stmt_start = end;
        *head_end = None;
    };

    while i < span.1 {
        match bytes[i] {
            b'(' | b'[' => {
                // Opaque group: skip it whole (braces inside are text).
                i = match match_delim(bytes, i) {
                    Some(end) => end,
                    None => span.1,
                };
            }
            b';' => {
                i += 1;
                flush(&mut out, &mut blocks, &mut stmt_start, &mut head_end, i);
            }
            b'{' => {
                let head = &blanked[stmt_start..*head_end.get_or_insert(i)];
                let end = match match_delim(bytes, i) {
                    Some(end) => end,
                    None => span.1,
                };
                blocks.push((i + 1, end.saturating_sub(1)));
                i = end;
                // Does this block end the statement? Only in statement
                // position (head starts with a control keyword or the
                // statement is a bare/label block) and when no `else`
                // continues it.
                let head = skip_comment_markers(head);
                let control = head.is_empty()
                    || CONTROL.iter().any(|k| {
                        head.starts_with(k)
                            && head[k.len()..].chars().next().is_none_or(|c| !c.is_alphanumeric())
                    });
                let mut k = i;
                while k < span.1 && (bytes[k] as char).is_whitespace() {
                    k += 1;
                }
                let else_follows = k + 4 <= span.1 && word_at(bytes, k, "else");
                if control && !else_follows {
                    flush(&mut out, &mut blocks, &mut stmt_start, &mut head_end, i);
                }
            }
            _ => i += 1,
        }
    }
    if stmt_start < span.1 {
        flush(&mut out, &mut blocks, &mut stmt_start, &mut head_end, span.1);
    }
    out
}

/// Blanks `#[cfg(test)]` regions out of already-blanked text (line
/// structure preserved). The semantic lints skip test code: tests may
/// deliberately construct lock inversions or reply-less dispatches to
/// assert on them.
pub(crate) fn strip_test_regions(blanked: &str) -> String {
    let mut out = String::with_capacity(blanked.len());
    let mut in_test = false;
    let mut depth: i32 = 0;
    let mut entered = false;
    for line in blanked.split_inclusive('\n') {
        if !in_test && line.contains("#[cfg(test)]") {
            in_test = true;
            depth = 0;
            entered = false;
        }
        if !in_test {
            out.push_str(line);
            continue;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        for c in line.chars() {
            out.push(if c == '\n' { '\n' } else { ' ' });
        }
        if entered && depth <= 0 {
            in_test = false; // region closed on this line
        } else if !entered && line.trim_end().ends_with(';') {
            in_test = false; // `#[cfg(test)] mod x;` — out-of-line module
        }
    }
    out
}

/// 1-based line number of byte offset `idx`.
pub(crate) fn line_of(text: &str, idx: usize) -> usize {
    text.as_bytes()[..idx.min(text.len())].iter().filter(|&&b| b == b'\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_and_bodies() {
        let src = "impl Foo {\n    fn one(&self) -> u32 {\n        1\n    }\n    fn two(&self, x: Vec<u8>) {\n        if x.is_empty() {\n            return;\n        }\n    }\n    fn decl_only(&self);\n}\n";
        let fns = extract_fns(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["one", "two"]);
        assert!(src[fns[1].body.0..fns[1].body.1].contains("is_empty"));
    }

    #[test]
    fn splits_statements_with_blocks() {
        let src = "{ let a = 1; if a > 0 { b(); } else { c(); } match a { 1 => {} _ => {} } d(); }";
        let stmts = split_stmts(src, (1, src.len() - 1));
        assert_eq!(stmts.len(), 4, "{:?}", stmts.iter().map(|s| s.head()).collect::<Vec<_>>());
        assert!(stmts[1].head().starts_with("if"));
        assert_eq!(stmts[1].blocks.len(), 2);
        assert!(stmts[2].head().starts_with("match"));
        assert!(stmts[3].head().starts_with("d()"));
    }

    #[test]
    fn closure_braces_in_call_args_are_opaque() {
        let src = "{ spawn(move || { inner(); }); after(); }";
        let stmts = split_stmts(src, (1, src.len() - 1));
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].blocks.is_empty(), "closure body leaked as a block");
    }

    #[test]
    fn let_with_tail_match_waits_for_semicolon() {
        let src = "{ let x = match y { A => 1, B => 2 }; z(); }";
        let stmts = split_stmts(src, (1, src.len() - 1));
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].blocks.len(), 1);
        assert!(stmts[0].head().starts_with("let x"));
    }

    #[test]
    fn word_boundaries() {
        let at = |text: &str, idx| word_at(text.as_bytes(), idx, "return");
        assert!(at("x; return;", 3));
        assert!(!at("returns;", 0));
        assert!(!at("my_return", 3));
    }
}
