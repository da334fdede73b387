//! The one Rust lexer behind both `cargo xtask lint` and
//! `cargo xtask analyze`.
//!
//! It produces real tokens — identifiers to follow field accesses and
//! call sites, string-literal *contents* to read crashpoint and obskit
//! event names — so no rule can match inside a comment or a string. The
//! lexer is token-tree-shallow: a flat token stream with line numbers,
//! leaving all nesting (braces, parens, generics) to the consumers, which
//! track depth themselves. Comments come back separately, as the only
//! place waivers are read from.
//!
//! Handled: line and nested block comments, string/raw-string/byte-string
//! literals, char literals vs lifetimes, numbers, identifiers, and
//! single-character punctuation. Escapes inside string literals are kept
//! verbatim (names never contain escapes).

/// Token classes the analysis passes distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// String literal; `text` holds the contents without quotes.
    Str,
    /// Numeric literal (one digit run; `1.5` lexes as `1` `.` `5`).
    Num,
    /// Lifetime (`'a`); `text` holds the name without the quote.
    Lifetime,
    /// Char literal; contents without quotes.
    Char,
    /// Single punctuation character.
    Punct,
}

/// One token: kind, text and the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True for a punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// True for an identifier token equal to `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }
}

/// One comment: the 1-based line it starts on and its text without the
/// delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
    /// Code precedes the comment on its first line.
    pub trailing: bool,
    /// `///`, `//!`, `/**` or `/*!`: documentation, not a directive.
    pub doc: bool,
}

/// A token run lexed from source text (`.unwrap()`, `fs::read`). It
/// matches tokens of the same kinds and texts, except that a trailing
/// identifier also matches as a prefix: `fs::read` covers
/// `fs::read_to_string`, as a substring search over the text would.
pub struct Pattern {
    pub text: &'static str,
    toks: Vec<Tok>,
}

impl Pattern {
    pub fn new(text: &'static str) -> Pattern {
        Pattern {
            text,
            toks: lex(text),
        }
    }

    /// Number of tokens in the pattern.
    pub fn token_count(&self) -> usize {
        self.toks.len()
    }

    /// True when the pattern matches the tokens starting at `toks[j]`.
    pub fn matches_at(&self, toks: &[Tok], j: usize) -> bool {
        let Some(run) = toks.get(j..j + self.toks.len()) else {
            return false;
        };
        let last = self.toks.len() - 1;
        self.toks.iter().zip(run).enumerate().all(|(k, (p, t))| {
            p.kind == t.kind
                && if k == last && p.kind == TokKind::Ident {
                    t.text.starts_with(&p.text)
                } else {
                    t.text == p.text
                }
        })
    }

    /// Lines of every match in `toks`.
    pub fn lines_in<'a>(&'a self, toks: &'a [Tok]) -> impl Iterator<Item = usize> + 'a {
        (0..toks.len())
            .filter(|&j| self.matches_at(toks, j))
            .map(|j| toks[j].line as usize)
    }
}

/// Lex `src` into a flat token stream, dropping comments.
pub fn lex(src: &str) -> Vec<Tok> {
    lex_with_comments(src).0
}

/// Lex `src` into a flat token stream plus its comments. Never fails:
/// unterminated literals run to end of input, unknown bytes are skipped.
pub fn lex_with_comments(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let b = src.as_bytes();
    let mut out: Vec<Tok> = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    // Whether a comment starting now follows code on its line.
    let trailing = |out: &[Tok], line: u32| out.last().is_some_and(|t| t.line == line);

    let ident_char = |c: u8| c.is_ascii_alphanumeric() || c == b'_';

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                comments.push(Comment {
                    line,
                    trailing: trailing(&out, line),
                    doc: text.starts_with(['/', '!']),
                    text: text.to_string(),
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let (start, start_line) = (i + 2, line);
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = if depth == 0 { i - 2 } else { i };
                let text = &src[start..end];
                comments.push(Comment {
                    line: start_line,
                    trailing: trailing(&out, start_line),
                    doc: text.starts_with(['*', '!']),
                    text: text.to_string(),
                });
            }
            b'"' => {
                let (content, next, newlines) = scan_string(src, i, 0);
                out.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line,
                });
                line += newlines;
                i = next;
            }
            b'r' | b'b' if starts_string_literal(b, i) => {
                // Skip the prefix (`r`, `b`, `br`, `rb`) and any `#`s, then
                // scan the quoted body.
                let mut k = i;
                while k < b.len() && (b[k] == b'r' || b[k] == b'b') {
                    k += 1;
                }
                let mut hashes = 0usize;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                let (content, next, newlines) = scan_string(src, k, hashes);
                out.push(Tok {
                    kind: TokKind::Str,
                    text: content,
                    line,
                });
                line += newlines;
                i = next;
            }
            b'\'' => {
                // Char literal vs lifetime, same discrimination the
                // stripper uses: a literal closes within a few chars.
                let rest = &b[i + 1..];
                if rest.first() == Some(&b'\\') {
                    let close = rest.iter().position(|&c| c == b'\'').unwrap_or(rest.len());
                    out.push(Tok {
                        kind: TokKind::Char,
                        text: src[i + 1..i + 1 + close].to_string(),
                        line,
                    });
                    i = (i + 2 + close).min(b.len());
                } else if rest.len() >= 2 && rest[1] == b'\'' {
                    out.push(Tok {
                        kind: TokKind::Char,
                        text: src[i + 1..i + 2].to_string(),
                        line,
                    });
                    i += 3;
                } else if rest.first().is_some_and(|&c| !c.is_ascii()) {
                    // Multi-byte char literal like '→'.
                    let s = &src[i + 1..];
                    match s
                        .char_indices()
                        .nth(1)
                        .filter(|&(idx, ch)| ch == '\'' && idx <= 4)
                    {
                        Some((idx, _)) => {
                            out.push(Tok {
                                kind: TokKind::Char,
                                text: s[..idx].to_string(),
                                line,
                            });
                            i += idx + 2;
                        }
                        None => i += 1,
                    }
                } else {
                    // Lifetime: consume the identifier.
                    let mut k = i + 1;
                    while k < b.len() && ident_char(b[k]) {
                        k += 1;
                    }
                    out.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i + 1..k].to_string(),
                        line,
                    });
                    i = k;
                }
            }
            c if c.is_ascii_digit() => {
                let mut k = i + 1;
                while k < b.len() && (ident_char(b[k])) {
                    k += 1;
                }
                out.push(Tok {
                    kind: TokKind::Num,
                    text: src[i..k].to_string(),
                    line,
                });
                i = k;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut k = i + 1;
                while k < b.len() && ident_char(b[k]) {
                    k += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..k].to_string(),
                    line,
                });
                i = k;
            }
            c if c.is_ascii() => {
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
            _ => {
                // Non-ASCII outside literals (e.g. in doc text that leaked
                // past comment handling): skip the full character.
                let ch_len = src[i..].chars().next().map_or(1, char::len_utf8);
                i += ch_len;
            }
        }
    }
    (out, comments)
}

/// True when position `i` (at `r` or `b`) starts a raw/byte string
/// literal rather than an identifier.
fn starts_string_literal(b: &[u8], i: usize) -> bool {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false; // tail of a longer identifier
    }
    let mut k = i;
    let mut saw_prefix = false;
    while k < b.len() && (b[k] == b'r' || b[k] == b'b') && k - i < 2 {
        k += 1;
        saw_prefix = true;
    }
    if !saw_prefix {
        return false;
    }
    let mut h = k;
    while h < b.len() && b[h] == b'#' {
        h += 1;
    }
    // `b"…"` takes no hashes; only raw forms (`r`, `br`, `rb`) do.
    h < b.len() && b[h] == b'"' && (h == k || b[i..k].contains(&b'r'))
}

/// Scan a quoted body starting at the opening `"` at `open`. `hashes` is
/// the raw-string hash count (0 = escapes are processed). Returns the
/// contents, the index after the closing delimiter, and newlines crossed.
fn scan_string(src: &str, open: usize, hashes: usize) -> (String, usize, u32) {
    let b = src.as_bytes();
    debug_assert!(open < b.len() && b[open] == b'"');
    let mut j = open + 1;
    let raw = hashes > 0;
    let end;
    loop {
        if j >= b.len() {
            end = b.len();
            break;
        }
        if b[j] == b'"' {
            if !raw {
                end = j;
                break;
            }
            if b[j + 1..].iter().take(hashes).all(|&c| c == b'#') && b[j + 1..].len() >= hashes {
                end = j;
                break;
            }
            j += 1;
        } else if !raw && b[j] == b'\\' {
            j = (j + 2).min(b.len());
        } else {
            j += 1;
        }
    }
    let content = src[open + 1..end].to_string();
    let newlines = content.matches('\n').count() as u32;
    let next = (end + 1 + hashes).min(b.len());
    (content, next, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let toks = lex("fn f() {\n  x.lock();\n}\n");
        assert!(toks[0].is_ident("fn"));
        assert_eq!(toks[0].line, 1);
        let lock = toks.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!(lock.line, 2);
    }

    #[test]
    fn strings_keep_contents_comments_vanish() {
        let toks = texts("event!(\"wal.append\"); // comment \"not a string\"\n/* x */ y");
        assert!(toks.contains(&(TokKind::Str, "wal.append".into())));
        assert!(toks.iter().all(|(_, t)| t != "comment"));
        assert!(toks.contains(&(TokKind::Ident, "y".into())));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let toks = texts(r##"let a = r#"he "quoted" re"#; let b = "es\"c";"##);
        assert!(toks.contains(&(TokKind::Str, "he \"quoted\" re".into())));
        assert!(toks.contains(&(TokKind::Str, "es\\\"c".into())));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = texts("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokKind::Char, "x".into())));
    }

    #[test]
    fn comments_come_back_with_line_and_position() {
        let (toks, comments) =
            lex_with_comments("// own\nx(); // trailing\n/// doc\n/* block\n */ y");
        assert_eq!(toks.len(), 5);
        let seen: Vec<_> = comments
            .iter()
            .map(|c| (c.line, c.text.as_str(), c.trailing, c.doc))
            .collect();
        assert_eq!(
            seen,
            vec![
                (1, " own", false, false),
                (2, " trailing", true, false),
                (3, "/ doc", false, true),
                (4, " block\n ", false, false),
            ]
        );
    }

    #[test]
    fn patterns_match_tokens_with_a_prefix_tail() {
        let toks = lex("std::fs::read_to_string(p); x.unwrap(); y.unwrap_or(0);");
        assert_eq!(Pattern::new("fs::read").lines_in(&toks).count(), 1);
        assert_eq!(Pattern::new(".unwrap()").lines_in(&toks).count(), 1);
        assert_eq!(Pattern::new("fs::write").lines_in(&toks).count(), 0);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let toks = lex("let s = \"a\nb\";\nfn g() {}");
        let g = toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }
}
