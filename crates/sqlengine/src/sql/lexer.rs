//! SQL lexer. Produces a token stream with source offsets (the parser
//! slices procedure bodies out of the original text).
//!
//! Token variants are named after their lexemes; per-variant docs would
//! repeat the names.
#![allow(missing_docs)]

use crate::error::{Error, Result};

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser against the identifier text).
    Ident(String),
    /// `@name` parameter reference; `@@name`, a system variable, is the
    /// parameter named `@name`.
    Param(String),
    /// `#name` temp-table identifier (kept distinct so the engine can
    /// route it to session-local storage).
    TempIdent(String),
    Int(i64),
    Float(f64),
    Str(String),
    // punctuation
    LParen,
    RParen,
    Comma,
    Semi,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Dot,
    Eof,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    /// Byte offset of the token start in the source text.
    pub start: usize,
    /// Byte offset just past the token's last byte.
    pub end: usize,
}

pub fn lex(src: &str) -> Result<Vec<Token>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        let next = b.get(i + 1).copied();
        let tok = match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if next == Some(b'-') => {
                // line comment
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'/' if next == Some(b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                if i + 1 >= b.len() {
                    return Err(Error::Syntax("unterminated block comment".into()));
                }
                i += 2;
                continue;
            }
            b'\'' => {
                // string literal with '' escape
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= b.len() {
                        return Err(Error::Syntax("unterminated string literal".into()));
                    }
                    if b[i] == b'\'' {
                        if i + 1 < b.len() && b[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(b[i] as char);
                        i += 1;
                    }
                }
                Tok::Str(s)
            }
            b'0'..=b'9' => {
                let mut j = i;
                let mut is_float = false;
                while j < b.len() && (b[j].is_ascii_digit()) {
                    j += 1;
                }
                if j < b.len() && b[j] == b'.' && j + 1 < b.len() && b[j + 1].is_ascii_digit() {
                    is_float = true;
                    j += 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                    let mut k = j + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        is_float = true;
                        j = k;
                        while j < b.len() && b[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &src[i..j];
                i = j;
                if is_float {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| Error::Syntax(format!("bad number '{text}'")))?,
                    )
                } else {
                    match text.parse::<i64>() {
                        Ok(v) => Tok::Int(v),
                        Err(_) => Tok::Float(
                            text.parse()
                                .map_err(|_| Error::Syntax(format!("bad number '{text}'")))?,
                        ),
                    }
                }
            }
            b'@' | b'#' => {
                // `@@name` is a system variable: a parameter whose name
                // keeps one '@', so no procedure parameter can shadow it.
                let system = c == b'@' && b.get(i + 1) == Some(&b'@');
                let first = if system { i + 2 } else { i + 1 };
                let mut j = first;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j == first {
                    return Err(Error::Syntax(format!(
                        "dangling '{}' at byte {i}",
                        c as char
                    )));
                }
                let name = src[i + 1..j].to_string();
                i = j;
                if c == b'@' {
                    Tok::Param(name)
                } else {
                    Tok::TempIdent(name)
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let name = src[i..j].to_string();
                i = j;
                Tok::Ident(name)
            }
            b'[' => {
                // bracket-quoted identifier (T-SQL style)
                let mut j = i + 1;
                while j < b.len() && b[j] != b']' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(Error::Syntax("unterminated [identifier]".into()));
                }
                let name = src[i + 1..j].to_string();
                i = j + 1;
                Tok::Ident(name)
            }
            b'!' | b'<' | b'>' if next == Some(b'=') || (c == b'<' && next == Some(b'>')) => {
                i += 2;
                match c {
                    b'<' if next == Some(b'=') => Tok::Le,
                    b'>' => Tok::Ge,
                    _ => Tok::Neq,
                }
            }
            _ => {
                let tok = match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b',' => Tok::Comma,
                    b';' => Tok::Semi,
                    b'*' => Tok::Star,
                    b'+' => Tok::Plus,
                    b'-' => Tok::Minus,
                    b'/' => Tok::Slash,
                    b'%' => Tok::Percent,
                    b'.' => Tok::Dot,
                    b'=' => Tok::Eq,
                    b'<' => Tok::Lt,
                    b'>' => Tok::Gt,
                    other => {
                        return Err(Error::Syntax(format!(
                            "unexpected character '{}' at byte {i}",
                            other as char
                        )))
                    }
                };
                i += 1;
                tok
            }
        };
        toks.push(Token { tok, start, end: i });
    }
    toks.push(Token {
        tok: Tok::Eof,
        start: src.len(),
        end: src.len(),
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_select() {
        let t = kinds("SELECT a, b FROM t WHERE a >= 10.5");
        assert_eq!(
            t,
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("a".into()),
                Tok::Comma,
                Tok::Ident("b".into()),
                Tok::Ident("FROM".into()),
                Tok::Ident("t".into()),
                Tok::Ident("WHERE".into()),
                Tok::Ident("a".into()),
                Tok::Ge,
                Tok::Float(10.5),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'it''s'"), vec![Tok::Str("it's".into()), Tok::Eof]);
        assert!(lex("'open").is_err());
    }

    #[test]
    fn params_and_temp_idents() {
        assert_eq!(
            kinds("@p1 #tmp"),
            vec![
                Tok::Param("p1".into()),
                Tok::TempIdent("tmp".into()),
                Tok::Eof
            ]
        );
        assert!(lex("@ x").is_err());
    }

    #[test]
    fn system_variables() {
        assert_eq!(
            kinds("@@ROWCOUNT, @x"),
            vec![
                Tok::Param("@ROWCOUNT".into()),
                Tok::Comma,
                Tok::Param("x".into()),
                Tok::Eof
            ]
        );
        for bare in ["@@", "@@ x", "SELECT @@;"] {
            assert!(lex(bare).is_err(), "{bare} lexed");
        }
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a -- comment\n b /* block */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
        assert!(lex("/* open").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("<> != <= >= < > ="),
            vec![
                Tok::Neq,
                Tok::Neq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 1e3 0.001"),
            vec![
                Tok::Int(1),
                Tok::Float(2.5),
                Tok::Float(1000.0),
                Tok::Float(0.001),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn bracket_identifiers() {
        assert_eq!(
            kinds("[order line]"),
            vec![Tok::Ident("order line".into()), Tok::Eof]
        );
    }

    #[test]
    fn offsets_track_source() {
        let toks = lex("SELECT x -- c\n 'it''s' <> [a b]").unwrap();
        let spans: Vec<_> = toks.iter().map(|t| (t.start, t.end)).collect();
        assert_eq!(
            spans,
            [(0, 6), (7, 8), (15, 22), (23, 25), (26, 31), (31, 31)]
        );
    }
}
