//! Token-level preprocessing: a tiny Rust lexer that blanks the
//! *contents* of string literals, character literals, and comments
//! while preserving every line boundary and every structural character.
//!
//! Every rule runs over blanked text: a `panic!(` inside a doc comment
//! or an error message can no longer trigger the panic rule, and the
//! test-region brace count cannot be thrown off by a stray `{` in a
//! string. Waiver comments
//! (`// flux-lint: allow(...)`) are detected on the *raw* lines, so
//! blanking never eats a justification.

/// Lexer state carried across lines.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Replaces string/char-literal contents and comment bodies with
/// spaces. Quotes themselves are kept (so `"x"` becomes `" "` — still a
/// string, just empty-looking), comment markers are kept (`//`, `/*`,
/// `*/`), and newlines are untouched, so line numbers and column-free
/// scans stay valid.
pub fn blank(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let bytes = src.as_bytes();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match mode {
            Mode::Code => {
                match b {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        out.push_str("//");
                        i += 2;
                        mode = Mode::LineComment;
                        continue;
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        out.push_str("/*");
                        i += 2;
                        mode = Mode::BlockComment(1);
                        continue;
                    }
                    b'"' => {
                        out.push('"');
                        i += 1;
                        mode = Mode::Str;
                        continue;
                    }
                    b'r' if is_raw_string_start(bytes, i) => {
                        let hashes = count_hashes(bytes, i + 1);
                        out.push('r');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        out.push('"');
                        i += 2 + hashes as usize;
                        mode = Mode::RawStr(hashes);
                        continue;
                    }
                    b'\'' if is_char_literal_start(bytes, i) => {
                        out.push('\'');
                        i += 1;
                        mode = Mode::Char;
                        continue;
                    }
                    _ => {}
                }
                out.push(b as char);
                i += 1;
            }
            Mode::LineComment => {
                if b == b'\n' {
                    out.push('\n');
                    mode = Mode::Code;
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    out.push_str("  ");
                    i += 2;
                    mode = Mode::BlockComment(depth + 1);
                } else if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    i += 2;
                    if depth == 1 {
                        out.push_str("*/");
                        mode = Mode::Code;
                    } else {
                        out.push_str("  ");
                        mode = Mode::BlockComment(depth - 1);
                    }
                } else {
                    out.push(if b == b'\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Str => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.push_str("  ");
                    i += 2;
                } else if b == b'"' {
                    out.push('"');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    out.push(if b == b'\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if b == b'"' && has_hashes(bytes, i + 1, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push('#');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    out.push(if b == b'\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            Mode::Char => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.push_str("  ");
                    i += 2;
                } else if b == b'\'' {
                    out.push('\'');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// `r"` or `r#...#"` — but not an identifier ending in `r` (checked by
/// the caller's context: the byte before must not be alphanumeric).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let hashes = count_hashes(bytes, i + 1);
    bytes.get(i + 1 + hashes as usize) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> u32 {
    let mut n = 0;
    while bytes.get(i) == Some(&b'#') {
        n += 1;
        i += 1;
    }
    n
}

fn has_hashes(bytes: &[u8], i: usize, n: u32) -> bool {
    (0..n as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// A `'` is a char literal (not a lifetime) if it closes within a few
/// chars: `'a'`, `'\n'`, `'\''`, `'\u{1F600}'`. Lifetimes (`'a`,
/// `'static`) never close with a `'`.
fn is_char_literal_start(bytes: &[u8], i: usize) -> bool {
    if bytes.get(i + 1) == Some(&b'\\') {
        return true; // escape: always a char literal
    }
    // `'x'` — one code point then a quote. Scan past one UTF-8 char.
    let mut j = i + 2;
    while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
        j += 1; // continuation bytes of a multibyte char
    }
    bytes.get(j) == Some(&b'\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_strings_but_keeps_structure() {
        let src = "let x = \"panic!( {\"; // a panic!( here\nfoo();\n";
        let b = blank(src);
        assert!(!b.contains("panic!("), "{b}");
        assert_eq!(b.lines().count(), src.lines().count());
        assert!(b.contains("let x = \""));
        assert!(b.contains("foo();"));
    }

    #[test]
    fn blanks_block_comments_and_nesting() {
        let src = "a /* outer /* inner */ still */ b /* unwrap() */ c";
        let b = blank(src);
        assert!(!b.contains("unwrap"));
        assert!(b.contains('a') && b.contains('b') && b.contains('c'));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = r####"let s = r#"a " quote { and panic!( "#; t.unwrap();"####;
        let b = blank(src);
        assert!(!b.contains("panic!("), "{b}");
        assert!(!b.contains('{'), "{b}");
        assert!(b.contains(".unwrap();"), "{b}");
        let esc = "let s = \"a \\\" b { \"; x.lock();";
        let be = blank(esc);
        assert!(!be.contains('{'), "{be}");
        assert!(be.contains(".lock();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let q = '\\''; }";
        let b = blank(src);
        assert_eq!(b.matches('{').count(), 1, "{b}");
        assert!(b.contains("<'a>"), "lifetime must survive: {b}");
    }

    #[test]
    fn line_comment_markers_survive() {
        let b = blank("x(); // flux-lint: allow(panic)\n");
        assert!(b.starts_with("x(); //"));
        assert!(!b.contains("flux-lint"));
    }
}
