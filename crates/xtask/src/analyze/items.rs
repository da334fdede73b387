//! Item extraction: structs (field-type tables), impl blocks, functions
//! (with parameter tables and body token ranges), and static lock cells.
//!
//! The extractor is a brace-depth cursor over the flat token stream from
//! [`super::lexer`]. It understands just enough structure to answer the
//! questions the lock and coverage passes ask — which type a receiver
//! resolves to, which fields are `Mutex`/`RwLock` cells, which tokens make
//! up a function body — and deliberately nothing more (no expressions, no
//! generics semantics, no trait resolution).
//!
//! It also owns the workspace's one answer to "is this test code?": an
//! item is test-only when its `cfg` requires `test` ([`cfg_requires_test`]).
//! Test-only items are skipped entirely and their token ranges recorded,
//! so the lint rules, the lock walker and the static-cell scan all read
//! the same non-test stream.

use super::lexer::{Tok, TokKind};

/// Lock cell flavor, from the field's declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// One struct field: name, resolved base type, and lock flavor if the
/// declared type contains a `Mutex`/`RwLock`.
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    /// First CamelCase identifier in the type after stripping smart
    /// pointers and containers (`Arc<LogStore>` → `LogStore`); empty when
    /// the type bottoms out in primitives.
    pub base_ty: String,
    pub lock: Option<LockKind>,
}

#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
    pub line: u32,
}

/// A `static NAME: Mutex<…>` cell (any nesting depth — function-local
/// statics are process-wide locks all the same).
#[derive(Debug, Clone)]
pub struct StaticDef {
    pub name: String,
    pub kind: LockKind,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl`/`trait` type, when any.
    pub impl_ty: Option<String>,
    /// Parameter table `name → base type` (self excluded).
    pub params: Vec<(String, String)>,
    pub has_self: bool,
    /// Body tokens between (exclusive) the outer braces. Empty for
    /// bodiless trait signatures.
    pub body: Vec<Tok>,
    pub line: u32,
}

impl FnDef {
    /// `Type::name` when inside an impl, else the bare name.
    pub fn qual_name(&self) -> String {
        match &self.impl_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub structs: Vec<StructDef>,
    pub statics: Vec<StaticDef>,
    pub fns: Vec<FnDef>,
    /// Token index ranges of the test-only items.
    pub test_ranges: Vec<std::ops::Range<usize>>,
}

/// Wrapper / container type names skipped when resolving a field or
/// parameter to its base type.
const TY_WRAPPERS: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Weak",
    "Pin",
    "RefCell",
    "Cell",
    "Option",
    "Result",
    "Vec",
    "VecDeque",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "Mutex",
    "RwLock",
    "PoisonError",
    "Duration",
    "Instant",
    "String",
    "PathBuf",
];

/// Resolve a token run describing a type to its base type name: the first
/// CamelCase identifier that is neither a wrapper nor an ALL_CAPS const.
fn base_ty_of(toks: &[Tok]) -> String {
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        let mut chars = s.chars();
        let leads_upper = chars.next().is_some_and(|c| c.is_ascii_uppercase());
        let has_lower = s.chars().any(|c| c.is_ascii_lowercase());
        if leads_upper && has_lower && !TY_WRAPPERS.contains(&s) {
            return s.to_string();
        }
    }
    String::new()
}

fn lock_kind_of(toks: &[Tok]) -> Option<LockKind> {
    for t in toks {
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "Mutex" => return Some(LockKind::Mutex),
                "RwLock" => return Some(LockKind::RwLock),
                _ => {}
            }
        }
    }
    None
}

/// True when a `#[cfg(…)]` attribute (tokens from `[` to `]`) can only
/// hold in a test build: `cfg(test)`, or an `all(…)` with such a member.
/// `not(…)`, an `any(…)` with a live alternative and every other
/// predicate are live.
pub fn cfg_requires_test(attr: &[Tok]) -> bool {
    match attr {
        [_, cfg, open, pred @ .., _, _] if cfg.is_ident("cfg") && open.is_punct('(') => {
            requires_test(pred)
        }
        _ => false,
    }
}

fn requires_test(pred: &[Tok]) -> bool {
    match pred {
        [t] => t.is_ident("test"),
        [f, open, args @ .., close] if open.is_punct('(') && close.is_punct(')') => {
            let mut args = split_top_level(args, ',')
                .into_iter()
                .filter(|a| !a.is_empty());
            if f.is_ident("all") {
                args.any(requires_test)
            } else if f.is_ident("any") {
                args.all(requires_test)
            } else {
                false
            }
        }
        _ => false,
    }
}

/// Split a token run on `sep` outside any `()`/`[]`/`<>` nesting.
fn split_top_level(toks: &[Tok], sep: char) -> Vec<&[Tok]> {
    let mut segs = Vec::new();
    let mut depth = 0i32;
    let mut prev_dash = false;
    let mut start = 0usize;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || (t.is_punct('>') && !prev_dash) {
            depth -= 1;
        } else if t.is_punct(sep) && depth == 0 {
            segs.push(&toks[start..k]);
            start = k + 1;
        }
        prev_dash = t.is_punct('-');
    }
    segs.push(&toks[start..]);
    segs
}

/// Extract all items from a lexed file.
pub fn extract(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    let mut cur = Cursor { toks, i: 0 };
    parse_items(&mut cur, None, usize::MAX, &mut out);
    out
}

struct Cursor<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.i)
    }
    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.i);
        self.i += 1;
        t
    }

    /// Skip one balanced `open…close` group; assumes cursor sits on `open`.
    fn skip_group(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skip a generics group `<…>`; assumes cursor sits on `<`. Handles
    /// `->` inside bounds (`F: Fn() -> T`) by ignoring a `>` that directly
    /// follows a `-`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.bump() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            prev_dash = t.is_punct('-');
        }
    }

    /// Skip forward past the end of one item: through the first balanced
    /// `{…}` group, or to a `;` outside any bracket nesting, whichever
    /// comes first. Used to discard `#[cfg(test)]` items.
    fn skip_item(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                self.skip_group('{', '}');
                return;
            }
            if t.is_punct('(') {
                self.skip_group('(', ')');
                // Tuple struct `struct X(…);` — keep going to the `;`.
                continue;
            }
            if t.is_punct('[') {
                self.skip_group('[', ']');
                continue;
            }
            if t.is_punct('<') {
                self.skip_angles();
                continue;
            }
            if t.is_punct(';') {
                self.bump();
                return;
            }
            if t.is_punct('}') {
                // Stray close (end of enclosing body): stop without eating.
                return;
            }
            self.bump();
        }
    }
}

/// Parse items until `end` tokens are consumed or a closing `}` of the
/// enclosing body is found. `impl_ty` is the enclosing impl/trait type.
fn parse_items(cur: &mut Cursor, impl_ty: Option<&str>, _end: usize, out: &mut FileItems) {
    let mut skip_next_item = false;
    while let Some(t) = cur.peek() {
        if t.is_punct('}') {
            cur.bump();
            return;
        }
        if t.is_punct('#') {
            // Attribute: `#[…]` or `#![…]`. Inspect for cfg(test).
            cur.bump();
            if cur.peek().is_some_and(|t| t.is_punct('!')) {
                cur.bump();
            }
            if cur.peek().is_some_and(|t| t.is_punct('[')) {
                let start = cur.i;
                cur.skip_group('[', ']');
                if cfg_requires_test(&cur.toks[start..cur.i]) {
                    skip_next_item = true;
                }
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            // Stray punctuation at item level (e.g. leftover from a parse
            // miss): step over group openers safely.
            if t.is_punct('{') {
                cur.skip_group('{', '}');
            } else {
                cur.bump();
            }
            continue;
        }
        match t.text.as_str() {
            _ if skip_next_item => {
                skip_next_item = false;
                let start = cur.i;
                cur.skip_item();
                out.test_ranges.push(start..cur.i);
            }
            "macro_rules" => {
                // `macro_rules! name { … }` — opaque, skip the body.
                cur.bump();
                while let Some(t) = cur.peek() {
                    if t.is_punct('{') {
                        cur.skip_group('{', '}');
                        break;
                    }
                    cur.bump();
                }
            }
            "struct" => parse_struct(cur, out),
            "static" => parse_static(cur, out),
            "impl" => parse_impl(cur, out),
            "trait" => {
                // `trait Name [: bounds] { default methods… }`
                cur.bump();
                let name = cur.bump().map(|t| t.text.clone()).unwrap_or_default();
                while let Some(t) = cur.peek() {
                    if t.is_punct('<') {
                        cur.skip_angles();
                    } else if t.is_punct('{') {
                        cur.bump();
                        parse_items(cur, Some(&name), usize::MAX, out);
                        break;
                    } else if t.is_punct(';') {
                        cur.bump();
                        break;
                    } else {
                        cur.bump();
                    }
                }
            }
            "mod" => {
                cur.bump();
                while let Some(t) = cur.peek() {
                    if t.is_punct('{') {
                        cur.bump();
                        parse_items(cur, impl_ty, usize::MAX, out);
                        break;
                    }
                    if t.is_punct(';') {
                        cur.bump();
                        break;
                    }
                    cur.bump();
                }
            }
            "fn" => parse_fn(cur, impl_ty, out),
            "enum" | "union" => {
                cur.bump();
                cur.skip_item();
            }
            _ => {
                // `pub`, `use`, `const`, `type`, `extern`, visibility
                // qualifiers, … — irrelevant prefixes or whole items.
                // `use`/`const`/`type` run to a `;`; qualifiers fall
                // through to the next keyword.
                let word = t.text.clone();
                cur.bump();
                if matches!(word.as_str(), "use" | "const" | "type" | "extern") {
                    while let Some(t) = cur.peek() {
                        if t.is_punct(';') {
                            cur.bump();
                            break;
                        }
                        if t.is_punct('{') {
                            cur.skip_group('{', '}');
                            // `extern "C" { … }` ends here.
                            break;
                        }
                        cur.bump();
                    }
                }
            }
        }
    }
}

fn parse_struct(cur: &mut Cursor, out: &mut FileItems) {
    let line = cur.peek().map_or(0, |t| t.line);
    cur.bump(); // struct
    let Some(name_tok) = cur.bump() else { return };
    let name = name_tok.text.clone();
    // Generics, then `{ fields }` / `(tuple);` / `;`.
    if cur.peek().is_some_and(|t| t.is_punct('<')) {
        cur.skip_angles();
    }
    // A `where` clause may precede the braces.
    while let Some(t) = cur.peek() {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct(';') {
            break;
        }
        if t.is_punct('<') {
            cur.skip_angles();
        } else {
            cur.bump();
        }
    }
    let mut fields = Vec::new();
    match cur.peek() {
        Some(t) if t.is_punct('{') => {
            cur.bump();
            loop {
                // Skip field attributes and visibility.
                while let Some(t) = cur.peek() {
                    if t.is_punct('#') {
                        cur.bump();
                        if cur.peek().is_some_and(|t| t.is_punct('[')) {
                            cur.skip_group('[', ']');
                        }
                    } else if t.is_ident("pub") {
                        cur.bump();
                        if cur.peek().is_some_and(|t| t.is_punct('(')) {
                            cur.skip_group('(', ')');
                        }
                    } else {
                        break;
                    }
                }
                match cur.peek() {
                    None => break,
                    Some(t) if t.is_punct('}') => {
                        cur.bump();
                        break;
                    }
                    _ => {}
                }
                let Some(fname) = cur.bump() else { break };
                let fname = fname.text.clone();
                if !cur.peek().is_some_and(|t| t.is_punct(':')) {
                    // Not a field after all; bail out of this struct.
                    cur.skip_item();
                    break;
                }
                cur.bump(); // :
                            // Type tokens to the next top-level `,` or `}`.
                let ty_start = cur.i;
                loop {
                    match cur.peek() {
                        None => break,
                        Some(t) if t.is_punct(',') => break,
                        Some(t) if t.is_punct('}') => break,
                        Some(t) if t.is_punct('<') => cur.skip_angles(),
                        Some(t) if t.is_punct('(') => cur.skip_group('(', ')'),
                        Some(t) if t.is_punct('[') => cur.skip_group('[', ']'),
                        _ => {
                            cur.bump();
                        }
                    }
                }
                let ty = &cur.toks[ty_start..cur.i];
                fields.push(FieldDef {
                    name: fname,
                    base_ty: base_ty_of(ty),
                    lock: lock_kind_of(ty),
                });
                if cur.peek().is_some_and(|t| t.is_punct(',')) {
                    cur.bump();
                }
            }
        }
        Some(t) if t.is_punct('(') => {
            cur.skip_group('(', ')');
            if cur.peek().is_some_and(|t| t.is_punct(';')) {
                cur.bump();
            }
        }
        Some(t) if t.is_punct(';') => {
            cur.bump();
        }
        _ => {}
    }
    out.structs.push(StructDef { name, fields, line });
}

fn parse_static(cur: &mut Cursor, out: &mut FileItems) {
    let line = cur.peek().map_or(0, |t| t.line);
    cur.bump(); // static
    if cur.peek().is_some_and(|t| t.is_ident("mut")) {
        cur.bump();
    }
    let Some(name_tok) = cur.peek() else { return };
    let name = name_tok.text.clone();
    cur.bump();
    if !cur.peek().is_some_and(|t| t.is_punct(':')) {
        return;
    }
    cur.bump();
    // Type tokens to the `=` or `;`.
    let ty_start = cur.i;
    loop {
        match cur.peek() {
            None => break,
            Some(t) if t.is_punct('=') || t.is_punct(';') => break,
            Some(t) if t.is_punct('<') => cur.skip_angles(),
            Some(t) if t.is_punct('(') => cur.skip_group('(', ')'),
            Some(t) if t.is_punct('[') => cur.skip_group('[', ']'),
            _ => {
                cur.bump();
            }
        }
    }
    if let Some(kind) = lock_kind_of(&cur.toks[ty_start..cur.i]) {
        out.statics.push(StaticDef { name, kind, line });
    }
    // Initializer runs to the `;` — leave it to the caller loop, which
    // treats the tokens as inert.
}

fn parse_impl(cur: &mut Cursor, out: &mut FileItems) {
    cur.bump(); // impl
    if cur.peek().is_some_and(|t| t.is_punct('<')) {
        cur.skip_angles();
    }
    // Collect the header up to `{`; the impl type is the path after `for`
    // when present, else the first path.
    let mut first_path: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    loop {
        match cur.peek() {
            None => return,
            Some(t) if t.is_punct('{') => {
                cur.bump();
                break;
            }
            Some(t) if t.is_ident("for") => {
                saw_for = true;
                cur.bump();
            }
            Some(t) if t.is_ident("where") => {
                // Skip to the `{`.
                while let Some(t) = cur.peek() {
                    if t.is_punct('{') {
                        break;
                    }
                    if t.is_punct('<') {
                        cur.skip_angles();
                    } else {
                        cur.bump();
                    }
                }
            }
            Some(t) if t.is_punct('<') => cur.skip_angles(),
            Some(t) => {
                if t.kind == TokKind::Ident {
                    if saw_for {
                        after_for.push(t.text.clone());
                    } else {
                        first_path.push(t.text.clone());
                    }
                }
                cur.bump();
            }
        }
    }
    let path = if saw_for { &after_for } else { &first_path };
    // Last CamelCase segment of the path (`fmt::Display for wal::LogStore`
    // → `LogStore`); tolerate `&`/`mut` receivers by skipping lowercase.
    let ty = path
        .iter()
        .rev()
        .find(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .cloned();
    parse_items(cur, ty.as_deref(), usize::MAX, out);
}

fn parse_fn(cur: &mut Cursor, impl_ty: Option<&str>, out: &mut FileItems) {
    let line = cur.peek().map_or(0, |t| t.line);
    cur.bump(); // fn
    let Some(name_tok) = cur.bump() else { return };
    let name = name_tok.text.clone();
    if cur.peek().is_some_and(|t| t.is_punct('<')) {
        cur.skip_angles();
    }
    if !cur.peek().is_some_and(|t| t.is_punct('(')) {
        return;
    }
    // Parameters: split the paren group on top-level commas.
    let params_start = cur.i + 1;
    cur.skip_group('(', ')');
    let params_toks = &cur.toks[params_start..cur.i.saturating_sub(1)];
    let (params, has_self) = parse_params(params_toks);

    // Return type / where clause up to the body or a bodiless `;`.
    let mut body = Vec::new();
    loop {
        match cur.peek() {
            None => break,
            Some(t) if t.is_punct(';') => {
                cur.bump();
                break;
            }
            Some(t) if t.is_punct('{') => {
                let body_start = cur.i + 1;
                cur.skip_group('{', '}');
                body = cur.toks[body_start..cur.i.saturating_sub(1)].to_vec();
                break;
            }
            Some(t) if t.is_punct('<') => cur.skip_angles(),
            _ => {
                cur.bump();
            }
        }
    }
    out.fns.push(FnDef {
        name,
        impl_ty: impl_ty.map(str::to_string),
        params,
        has_self,
        body,
        line,
    });
}

/// Split a parameter token run on top-level commas and resolve each to
/// `(pattern name, base type)`.
fn parse_params(toks: &[Tok]) -> (Vec<(String, String)>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    for seg in split_top_level(toks, ',') {
        let idents: Vec<&Tok> = seg.iter().filter(|t| t.kind == TokKind::Ident).collect();
        if idents
            .iter()
            .find(|t| !t.is_ident("mut"))
            .is_some_and(|t| t.is_ident("self"))
        {
            has_self = true;
            continue;
        }
        // `pat : type` — split at the first top-level colon (a `::` path
        // cannot appear in a pattern before the type colon).
        let Some(colon) = seg.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let pat_name = seg[..colon]
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
            .map(|t| t.text.clone());
        let Some(pat_name) = pat_name else { continue };
        params.push((pat_name, base_ty_of(&seg[colon + 1..])));
    }
    (params, has_self)
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn items(src: &str) -> FileItems {
        extract(&lex(src))
    }

    #[test]
    fn struct_fields_and_lock_kinds() {
        let it = items(
            "pub struct BufferPool { disk: Arc<MemDisk>, pub inner: Mutex<PoolInner>, cap: usize }\n\
             struct Frame { data: RwLock<Box<[u8; PAGE_SIZE]>> }",
        );
        let bp = &it.structs[0];
        assert_eq!(bp.name, "BufferPool");
        assert_eq!(bp.fields[0].base_ty, "MemDisk");
        assert_eq!(bp.fields[0].lock, None);
        assert_eq!(bp.fields[1].lock, Some(LockKind::Mutex));
        assert_eq!(it.structs[1].fields[0].lock, Some(LockKind::RwLock));
    }

    #[test]
    fn impl_and_fn_extraction() {
        let it = items(
            "impl BufferPool {\n  pub fn fetch(&self, id: PageId) -> Result<PageGuard, E> {\n    let g = self.inner.lock();\n  }\n}\n\
             impl fmt::Display for Violation { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { } }\n\
             fn free(frame: &Arc<Frame>) {}",
        );
        assert_eq!(it.fns.len(), 3);
        assert_eq!(it.fns[0].qual_name(), "BufferPool::fetch");
        assert!(it.fns[0].has_self);
        assert_eq!(it.fns[0].params, vec![("id".into(), "PageId".into())]);
        assert!(it.fns[0].body.iter().any(|t| t.is_ident("lock")));
        assert_eq!(it.fns[1].qual_name(), "Violation::fmt");
        assert_eq!(it.fns[2].params, vec![("frame".into(), "Frame".into())]);
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let it = items(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  struct Hidden { x: Mutex<u8> }\n  fn t() {}\n}\nfn live2() {}",
        );
        assert_eq!(
            it.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["live", "live2"]
        );
        assert!(it.structs.is_empty());
    }

    #[test]
    fn only_cfgs_that_require_test_are_test_only() {
        let test_only = |attr: &str| cfg_requires_test(&lex(attr));
        assert!(test_only("[cfg(test)]"));
        assert!(test_only("[cfg(all(test, unix))]"));
        assert!(test_only("[cfg(all(unix, any(test, test)))]"));
        assert!(!test_only("[cfg(not(test))]"));
        assert!(!test_only("[cfg(any(test, feature = \"sim\"))]"));
        assert!(!test_only("[cfg(all(unix, not(test)))]"));
        assert!(!test_only("[cfg_attr(test, derive(Debug))]"));

        let it = items(
            "#[cfg(not(test))]\nfn live() {}\n#[cfg(all(test, unix))]\nmod t { fn hidden() {} }\nfn live2() {}",
        );
        assert_eq!(
            it.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["live", "live2"]
        );
        assert_eq!(it.test_ranges.len(), 1);
    }

    #[test]
    fn statics_with_lock_types() {
        let it = items(
            "static STATE: Mutex<State> = Mutex::new(State::Off);\n\
             static COUNT: AtomicU64 = AtomicU64::new(0);\n\
             fn f() { static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new()); }",
        );
        // Top-level statics are seen here; function-local ones live in the
        // body and are collected by the flat pass in mod.rs.
        assert_eq!(it.statics.len(), 1);
        assert_eq!(it.statics[0].name, "STATE");
        assert_eq!(it.statics[0].kind, LockKind::Mutex);
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let it = items(
            "impl<K: Ord, V> Store<K, V> where K: Clone {\n  fn get<Q>(&self, q: &Q) -> Option<&V> where Q: Fn() -> K { None }\n}",
        );
        assert_eq!(it.fns[0].qual_name(), "Store::get");
    }
}
