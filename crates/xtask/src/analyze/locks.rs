//! Lock-order inference: per-function lock acquisitions, a one-level
//! transitive call graph, and a global lock-order graph with cycle
//! detection.
//!
//! Nodes are lock *cells*, named `Struct::field` (e.g.
//! `BufferPool::inner`) or `crate::STATIC` for static cells. An edge
//! `a → b` means some function acquires `b` while holding `a`, either
//! directly in its own body or by calling a function that (within one
//! level of transitivity) acquires `b`. A cycle in this graph is a
//! potential deadlock: two threads taking the members in opposite order
//! can block each other forever.
//!
//! Receiver resolution is intentionally shallow — `self.field`,
//! `self.f1.f2`, `param.field`, statics, and a unique-field-name
//! fallback — and everything it cannot resolve is counted rather than
//! guessed, so the graph never contains fabricated nodes.
//!
//! The same guard-liveness walk enforces the `lint` rule `lock` in the
//! files [`crate::classify`] marks `lock_rules`: no blocking call
//! (`BLOCKING_TOKENS`) while a guard is live. An acquisition the
//! resolver cannot name still yields an anonymous guard for that check;
//! it adds no node and no edge.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

use super::items::{FnDef, LockKind, StructDef};
use super::lexer::{Pattern, Tok, TokKind};
use super::{SrcFile, Workspace};
use crate::{Rule, Violation};

/// Where an edge was created: caller file/line plus the responsible
/// function, and (for call-site edges) the callee that takes the lock.
#[derive(Debug, Clone)]
pub struct Site {
    pub file: String,
    pub line: u32,
    pub func: String,
    /// Set for edges induced at a call site: the (possibly transitive)
    /// callee whose body performs the acquisition.
    pub via: Option<String>,
}

impl Site {
    pub fn describe(&self) -> String {
        match &self.via {
            Some(v) => format!("{}:{} in {} via {}", self.file, self.line, self.func, v),
            None => format!("{}:{} in {}", self.file, self.line, self.func),
        }
    }
}

/// The inferred lock-order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    pub nodes: BTreeSet<String>,
    /// `(from, to) → first site that created the edge`.
    pub edges: BTreeMap<(String, String), Site>,
}

impl LockGraph {
    pub fn successors<'a>(&'a self, n: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.edges
            .range((n.to_string(), String::new())..)
            .take_while(move |((f, _), _)| f == n)
            .map(|((_, t), _)| t.as_str())
    }

    /// True when `to` is reachable from `from` along edges.
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.to_string()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            for s in self.successors(&n) {
                stack.push(s.to_string());
            }
        }
        false
    }
}

/// One cycle through the graph: the node sequence (first == last) and the
/// site of each edge along it.
#[derive(Debug)]
pub struct Cycle {
    pub nodes: Vec<String>,
    pub sites: Vec<Site>,
}

impl Cycle {
    /// Render the full acquisition chain, one `file:line` per edge.
    pub fn chain(&self) -> String {
        let mut s = String::new();
        for (k, site) in self.sites.iter().enumerate() {
            if k > 0 {
                s.push_str(", then ");
            }
            s.push_str(&format!(
                "{} -> {} at {}",
                self.nodes[k],
                self.nodes[k + 1],
                site.describe()
            ));
        }
        s
    }
}

/// Counters the analyzer keeps instead of guessing.
#[derive(Debug, Default)]
pub struct LockStats {
    pub functions: usize,
    pub acquisitions: usize,
    pub acq_unresolved: usize,
    pub calls_resolved: usize,
    pub calls_unresolved: usize,
    /// `(file, line)` of every edge an `analyze:allow(lock_edge)` dropped.
    pub waived_edges: Vec<(String, usize)>,
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls that park the thread or hit the disk/network — forbidden while
/// a lock guard is live. Matched as token [`Pattern`]s, so `fs::read`
/// also covers `fs::read_to_string` and `fs::read_dir`.
const BLOCKING_TOKENS: &[&str] = &[
    ".wait(",
    ".wait_for(",
    ".recv(",
    ".recv_timeout(",
    ".accept(",
    "thread::sleep",
    "TcpStream",
    "File::open",
    "File::create",
    "fs::read",
    "fs::write",
    "OpenOptions",
];

const STMT_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in",
];

/// Identity of a function in the global table.
type FnId = usize;

struct FnRef<'a> {
    file: &'a SrcFile,
    def: &'a FnDef,
}

/// Global resolution tables shared by the per-function pass.
pub struct Resolver<'a> {
    fns: Vec<FnRef<'a>>,
    /// `(impl type, method) → FnId`.
    methods: HashMap<(&'a str, &'a str), FnId>,
    /// free functions by name (unique only).
    free_fns: HashMap<&'a str, Option<FnId>>,
    /// method name → ids (for unique-name fallback).
    by_name: HashMap<&'a str, Vec<FnId>>,
    /// struct name → defs (duplicates kept; lock lookup scans all).
    structs: HashMap<&'a str, Vec<&'a StructDef>>,
    /// lock-field name → owning struct names (for the unique fallback).
    lock_fields: HashMap<&'a str, BTreeSet<&'a str>>,
    /// static cell name → crates declaring it.
    statics: HashMap<String, BTreeSet<String>>,
}

impl<'a> Resolver<'a> {
    pub fn build(ws: &'a Workspace) -> Self {
        let mut r = Resolver {
            fns: Vec::new(),
            methods: HashMap::new(),
            free_fns: HashMap::new(),
            by_name: HashMap::new(),
            structs: HashMap::new(),
            lock_fields: HashMap::new(),
            statics: HashMap::new(),
        };
        for file in &ws.files {
            for s in &file.items.structs {
                r.structs.entry(s.name.as_str()).or_default().push(s);
                for f in &s.fields {
                    if f.lock.is_some() {
                        r.lock_fields
                            .entry(f.name.as_str())
                            .or_default()
                            .insert(s.name.as_str());
                    }
                }
            }
            for def in &file.items.fns {
                let id = r.fns.len();
                r.fns.push(FnRef { file, def });
                r.by_name.entry(def.name.as_str()).or_default().push(id);
                match &def.impl_ty {
                    Some(ty) => {
                        r.methods.insert((ty.as_str(), def.name.as_str()), id);
                    }
                    None => {
                        r.free_fns
                            .entry(def.name.as_str())
                            .and_modify(|e| *e = None) // duplicate → ambiguous
                            .or_insert(Some(id));
                    }
                }
            }
            // Flat static-cell pass: catches function-local statics too.
            for (name, _kind) in scan_statics(&file.toks) {
                r.statics
                    .entry(name)
                    .or_default()
                    .insert(file.crate_name.clone());
            }
        }
        r
    }

    /// The lock field `field` on struct `ty`, as a graph node name.
    fn lock_field_node(&self, ty: &str, field: &str) -> Option<String> {
        let defs = self.structs.get(ty)?;
        for s in defs.iter() {
            if let Some(f) = s.fields.iter().find(|f| f.name == field) {
                if f.lock.is_some() {
                    return Some(format!("{ty}::{field}"));
                }
            }
        }
        None
    }

    /// Base type of field `field` on struct `ty`.
    fn field_ty(&self, ty: &str, field: &str) -> Option<&'a str> {
        for s in self.structs.get(ty)? {
            if let Some(f) = s.fields.iter().find(|f| f.name == field) {
                if !f.base_ty.is_empty() {
                    return Some(f.base_ty.as_str());
                }
            }
        }
        None
    }

    fn static_node(&self, name: &str, from_crate: &str) -> Option<String> {
        let crates = self.statics.get(name)?;
        if crates.contains(from_crate) {
            return Some(format!("{from_crate}::{name}"));
        }
        if crates.len() == 1 {
            return Some(format!("{}::{name}", crates.iter().next().unwrap()));
        }
        None
    }
}

/// All `static NAME: Mutex/RwLock<…>` declarations in a file's non-test
/// token stream, regardless of nesting depth.
fn scan_statics(toks: &[Tok]) -> Vec<(String, LockKind)> {
    let mut out = Vec::new();
    let mut j = 0;
    while j + 3 < toks.len() {
        if toks[j].is_ident("static") && toks[j].kind == TokKind::Ident {
            let mut k = j + 1;
            if toks[k].is_ident("mut") {
                k += 1;
            }
            if toks[k].kind == TokKind::Ident && toks.get(k + 1).is_some_and(|t| t.is_punct(':')) {
                let name = toks[k].text.clone();
                // Type runs to the `=` or `;`.
                let mut m = k + 2;
                let mut kind = None;
                while m < toks.len() && !toks[m].is_punct('=') && !toks[m].is_punct(';') {
                    if toks[m].is_ident("Mutex") {
                        kind.get_or_insert(LockKind::Mutex);
                    } else if toks[m].is_ident("RwLock") {
                        kind.get_or_insert(LockKind::RwLock);
                    }
                    m += 1;
                }
                if let Some(kind) = kind {
                    out.push((name, kind));
                }
                j = m;
                continue;
            }
        }
        j += 1;
    }
    out
}

/// What one function's body does, in graph terms.
#[derive(Debug, Default)]
struct FnFacts {
    /// Directly acquired nodes with their lines.
    direct: Vec<(String, u32)>,
    /// Resolved call sites: callee id, held nodes at the call, line.
    calls: Vec<(FnId, Vec<String>, u32)>,
    /// Intra-function edges (held → acquired).
    edges: Vec<(String, String, u32)>,
    /// `lock` lint findings: blocking calls under a live guard.
    blocking: Vec<Violation>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StmtKind {
    /// `let …` — guard bound to a name, lives to end of enclosing block.
    Let,
    /// `if let` / `while let` / `match` / `for` — scrutinee temporaries
    /// live through the body block.
    BindingCond,
    /// plain `if` / `while` — condition temporaries die at the `{`.
    PlainCond,
    Other,
}

struct Guard {
    /// The lock cell, or None for an acquisition the resolver could not
    /// name (it still counts for the blocking check).
    node: Option<String>,
    name: Option<String>,
    line: u32,
    /// Alive while brace depth ≥ this.
    min_depth: i32,
    /// Temporary (dies at the statement's `;`) vs block-scoped.
    temp: bool,
}

/// Walk one function body: track live guards, record acquisitions, edges,
/// resolved call sites and any `blocking` call made under a live guard.
fn analyze_fn(
    r: &Resolver,
    file: &SrcFile,
    def: &FnDef,
    blocking: &[Pattern],
    stats: &mut LockStats,
) -> FnFacts {
    let mut facts = FnFacts::default();
    let toks = &def.body;
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt_kind = StmtKind::Other;
    let mut stmt_fresh = true;
    let mut let_name: Option<String> = None;

    let param_ty = |name: &str| -> Option<&str> {
        def.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
            .filter(|t| !t.is_empty())
    };

    let mut j = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            // Temporaries created in this statement either extend through
            // the body (binding conditions) or die here (plain ones).
            match stmt_kind {
                StmtKind::BindingCond => {
                    for g in guards.iter_mut().filter(|g| g.temp && g.min_depth == depth) {
                        g.temp = false;
                        g.min_depth = depth + 1;
                    }
                }
                StmtKind::PlainCond => {
                    guards.retain(|g| !(g.temp && g.min_depth == depth));
                }
                _ => {}
            }
            depth += 1;
            stmt_fresh = true;
            stmt_kind = StmtKind::Other;
            j += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.min_depth <= depth);
            stmt_fresh = true;
            stmt_kind = StmtKind::Other;
            j += 1;
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !(g.temp && g.min_depth == depth));
            stmt_fresh = true;
            stmt_kind = StmtKind::Other;
            let_name = None;
            j += 1;
            continue;
        }
        if stmt_fresh && t.kind == TokKind::Ident {
            stmt_fresh = false;
            stmt_kind = classify_stmt(toks, j);
            let_name = if stmt_kind == StmtKind::Let {
                let_binding_name(toks, j)
            } else {
                None
            };
        }

        if !guards.is_empty() {
            for pat in blocking.iter().filter(|p| p.matches_at(toks, j)) {
                let args = call_args(toks, j + pat.token_count() - 1);
                for g in &guards {
                    // A wait that names the guard releases it atomically
                    // (the condvar idiom).
                    if g.name
                        .as_ref()
                        .is_some_and(|n| args.iter().any(|a| a.is_ident(n)))
                    {
                        continue;
                    }
                    let who = g
                        .name
                        .as_deref()
                        .or(g.node.as_deref())
                        .unwrap_or("temporary");
                    facts.blocking.push(Violation {
                        file: PathBuf::from(&file.rel),
                        line: t.line as usize,
                        rule: Rule::Lock,
                        message: format!(
                            "blocking call `{}` while guard `{who}` from line {} is held",
                            pat.text, g.line
                        ),
                    });
                }
            }
        }

        // `drop(name)` releases the named guard.
        if t.is_ident("drop")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                if let Some(pos) = guards
                    .iter()
                    .position(|g| g.name.as_deref() == Some(name.text.as_str()))
                {
                    guards.remove(pos);
                }
                j += 4;
                continue;
            }
        }

        // Candidate: identifier directly followed by `(` — an acquisition
        // or a call (macros excluded by the `!` check).
        let is_callish = t.kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            && !STMT_KEYWORDS.contains(&t.text.as_str());
        if is_callish {
            let dotted = j > 0 && toks[j - 1].is_punct('.');
            let chain = if dotted {
                receiver_chain(toks, j)
            } else {
                Vec::new()
            };
            let word = t.text.as_str();
            let mut handled = false;

            let guard = |node: Option<String>| Guard {
                node,
                name: let_name.clone(),
                line: t.line,
                min_depth: depth,
                temp: stmt_kind != StmtKind::Let,
            };
            let lock_method = dotted && LOCK_METHODS.contains(&word);
            // `.lock()`, `.read()`, `.write()` with no arguments.
            let lock_shaped = lock_method && toks.get(j + 2).is_some_and(|t| t.is_punct(')'));
            if lock_method {
                stats.acquisitions += 1;
                if let Some(node) = resolve_lock(r, file, def, &chain, param_ty) {
                    for held in guards.iter().filter_map(|g| g.node.as_ref()) {
                        facts.edges.push((held.clone(), node.clone(), t.line));
                    }
                    facts.direct.push((node.clone(), t.line));
                    guards.push(guard(Some(node)));
                    handled = true;
                } else {
                    stats.acquisitions -= 1; // will recount below if a call
                }
            }
            if !handled && word.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
                match resolve_call(r, file, def, &chain, word, dotted, toks, j, param_ty) {
                    Some(callee) => {
                        stats.calls_resolved += 1;
                        let held = guards.iter().filter_map(|g| g.node.clone()).collect();
                        facts.calls.push((callee, held, t.line));
                        // A workspace wrapper such as `PageGuard::write`
                        // hands back a lock guard: hold it anonymously.
                        if lock_shaped {
                            guards.push(guard(None));
                        }
                    }
                    None => {
                        if lock_method {
                            // Unresolvable `.lock()`-shaped site: count it
                            // so drift shows up in the stats, and hold an
                            // anonymous guard when it takes no arguments
                            // (`.read(buf)` is I/O, not a lock).
                            stats.acquisitions += 1;
                            stats.acq_unresolved += 1;
                            if lock_shaped {
                                guards.push(guard(None));
                            }
                        } else {
                            stats.calls_unresolved += 1;
                        }
                    }
                }
            }
        }
        j += 1;
    }
    facts
}

/// The tokens inside the parenthesized group opening at `open`, or none
/// when `toks[open]` is not `(`.
fn call_args(toks: &[Tok], open: usize) -> &[Tok] {
    if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
        return &[];
    }
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return &toks[open + 1..k];
            }
        }
    }
    &toks[open + 1..]
}

/// Classify the statement starting at token `j`.
fn classify_stmt(toks: &[Tok], j: usize) -> StmtKind {
    let word = toks[j].text.as_str();
    match word {
        "let" => StmtKind::Let,
        "if" | "while" => {
            if toks.get(j + 1).is_some_and(|t| t.is_ident("let")) {
                StmtKind::BindingCond
            } else {
                StmtKind::PlainCond
            }
        }
        "else" if toks.get(j + 1).is_some_and(|t| t.is_ident("if")) => classify_stmt(toks, j + 1),
        "match" | "for" => StmtKind::BindingCond,
        _ => StmtKind::Other,
    }
}

/// First lowercase identifier in the pattern of a `let` statement —
/// handles `let mut g`, `let Some(g)`, `let (a, b)`, `let Ok(v) = … else`.
fn let_binding_name(toks: &[Tok], j: usize) -> Option<String> {
    let mut k = j + 1;
    while k < toks.len() && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && !t.is_ident("mut")
            && !t.is_ident("ref")
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase())
        {
            return Some(t.text.clone());
        }
        k += 1;
    }
    None
}

/// Walk the `.`-separated receiver chain left of the method identifier at
/// `j`: `self.frame.data.read(` → `["self", "frame", "data"]`. A balanced
/// `[…]` index group is skipped — `self.shards[si].lock(` names the
/// `shards` cell regardless of the index expression, which is how
/// lock-striped `Vec<Mutex<_>>` / `[Mutex<_>; N]` fields are acquired.
/// Stops at anything else that is not `ident .` — a `)` leaves a partial
/// chain.
fn receiver_chain(toks: &[Tok], j: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = j as i64 - 1; // the `.`
    while k >= 1 {
        if !toks[k as usize].is_punct('.') {
            break;
        }
        let mut p = k - 1;
        if p >= 0 && toks[p as usize].is_punct(']') {
            let mut depth = 0i64;
            while p >= 0 {
                if toks[p as usize].is_punct(']') {
                    depth += 1;
                } else if toks[p as usize].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                p -= 1;
            }
            if depth != 0 {
                break;
            }
            p -= 1; // the token before `[`
        }
        if p < 0 || toks[p as usize].kind != TokKind::Ident {
            break;
        }
        chain.push(toks[p as usize].text.clone());
        k = p - 1;
    }
    chain.reverse();
    chain
}

/// Resolve an acquisition receiver chain to a lock node, or None when the
/// site is really a method call (or unresolvable).
fn resolve_lock<'a>(
    r: &Resolver,
    file: &SrcFile,
    def: &FnDef,
    chain: &[String],
    param_ty: impl Fn(&str) -> Option<&'a str>,
) -> Option<String> {
    match chain {
        // `self.field.lock()`
        [s, f] if s == "self" => {
            let ty = def.impl_ty.as_deref()?;
            r.lock_field_node(ty, f)
        }
        // `self.f1.f2.lock()` — two-hop through a field's type.
        [s, f1, f2] if s == "self" => {
            let ty = def.impl_ty.as_deref()?;
            let mid = r.field_ty(ty, f1)?;
            r.lock_field_node(mid, f2)
        }
        // `param.field.lock()`
        [p, f] => {
            let ty = param_ty(p)?;
            r.lock_field_node(ty, f)
        }
        // `CELL.lock()` — a static, or a param that IS the cell.
        [x] => {
            if x.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                return r.static_node(x, &file.crate_name);
            }
            // `fn f(m: &Mutex<State>)`-style: the base type names the
            // payload, which is not a cell we can track. Give up here;
            // resolve_call gets a chance next.
            None
        }
        // Longer/partial chains: unique lock-field-name fallback.
        [.., f] => {
            let owners = r.lock_fields.get(f.as_str())?;
            if owners.len() == 1 {
                Some(format!("{}::{f}", owners.iter().next().unwrap()))
            } else {
                None
            }
        }
        [] => None,
    }
}

/// Resolve a call site to a function id.
#[allow(clippy::too_many_arguments)]
fn resolve_call<'a>(
    r: &Resolver,
    _file: &SrcFile,
    def: &FnDef,
    chain: &[String],
    method: &str,
    dotted: bool,
    toks: &[Tok],
    j: usize,
    param_ty: impl Fn(&str) -> Option<&'a str>,
) -> Option<FnId> {
    if dotted {
        let recv_ty: Option<&str> = match chain {
            [s] if s == "self" => def.impl_ty.as_deref(),
            [s, f] if s == "self" => {
                let ty = def.impl_ty.as_deref()?;
                r.field_ty(ty, f)
            }
            [p] => param_ty(p),
            [p, f] => {
                let ty = param_ty(p)?;
                r.field_ty(ty, f)
            }
            _ => None,
        };
        if let Some(ty) = recv_ty {
            if let Some(&id) = r.methods.get(&(ty, method)) {
                return Some(id);
            }
        }
        // Unique-name fallback across all methods — except for the lock
        // verbs, where a unique workspace method (say `PageGuard::read`)
        // must not swallow an unrelated io `.read(…)` call.
        if LOCK_METHODS.contains(&method) {
            return None;
        }
        let ids = r.by_name.get(method)?;
        if ids.len() == 1 {
            return Some(ids[0]);
        }
        return None;
    }
    // `Type::func(…)` associated call.
    if j >= 3 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        if toks[j - 3].kind == TokKind::Ident {
            if let Some(&id) = r.methods.get(&(toks[j - 3].text.as_str(), method)) {
                return Some(id);
            }
        }
        return None;
    }
    // Free function.
    (*r.free_fns.get(method)?).or_else(|| {
        let ids = r.by_name.get(method)?;
        if ids.len() == 1 {
            Some(ids[0])
        } else {
            None
        }
    })
}

/// Build the global lock-order graph over the whole workspace. Also
/// returns the `lock` lint findings: blocking calls under a live guard in
/// files with `lock_rules`, before any `lint:allow` waiver.
pub fn build_graph(ws: &Workspace) -> (LockGraph, LockStats, Vec<Violation>) {
    let r = Resolver::build(ws);
    let blocking: Vec<Pattern> = BLOCKING_TOKENS.iter().map(|t| Pattern::new(t)).collect();
    let mut stats = LockStats::default();
    let mut all_facts: Vec<FnFacts> = Vec::with_capacity(r.fns.len());
    let mut findings = Vec::new();
    for fr in &r.fns {
        stats.functions += 1;
        let pats = if fr.file.class.lock_rules {
            &blocking[..]
        } else {
            &[]
        };
        let mut facts = analyze_fn(&r, fr.file, fr.def, pats, &mut stats);
        findings.append(&mut facts.blocking);
        all_facts.push(facts);
    }

    // acquired1(f) = direct(f) ∪ direct(callees of f): one level of
    // transitivity, per the design — deep chains surface once the
    // intermediate functions are analyzed in their own right.
    let acquired1: Vec<BTreeSet<String>> = all_facts
        .iter()
        .map(|facts| {
            let mut set: BTreeSet<String> = facts.direct.iter().map(|(n, _)| n.clone()).collect();
            for (callee, _, _) in &facts.calls {
                set.extend(all_facts[*callee].direct.iter().map(|(n, _)| n.clone()));
            }
            set
        })
        .collect();

    let mut graph = LockGraph::default();
    for (id, facts) in all_facts.iter().enumerate() {
        let fr = &r.fns[id];
        let file = fr.file;
        let fname = fr.def.qual_name();
        for (node, _) in &facts.direct {
            graph.nodes.insert(node.clone());
        }
        let add = |graph: &mut LockGraph,
                   stats: &mut LockStats,
                   from: &str,
                   to: &str,
                   line: u32,
                   via: Option<String>| {
            if file.allows.waives("lock_edge", line as usize) {
                stats.waived_edges.push((file.rel.clone(), line as usize));
                return;
            }
            graph.nodes.insert(from.to_string());
            graph.nodes.insert(to.to_string());
            graph
                .edges
                .entry((from.to_string(), to.to_string()))
                .or_insert_with(|| Site {
                    file: file.rel.clone(),
                    line,
                    func: fname.clone(),
                    via,
                });
        };
        for (from, to, line) in &facts.edges {
            add(&mut graph, &mut stats, from, to, *line, None);
        }
        for (callee, held, line) in &facts.calls {
            if held.is_empty() {
                continue;
            }
            for to in &acquired1[*callee] {
                for from in held {
                    add(
                        &mut graph,
                        &mut stats,
                        from,
                        to,
                        *line,
                        Some(r.fns[*callee].def.qual_name()),
                    );
                }
            }
        }
    }
    (graph, stats, findings)
}

/// Find cycles: one representative per strongly-connected component with
/// an internal cycle, plus self-loops.
pub fn find_cycles(graph: &LockGraph) -> Vec<Cycle> {
    let mut cycles = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();

    for start in &graph.nodes {
        // DFS from each node, only keeping cycles that return to `start`
        // and whose node set is new. Small graphs; no need for Johnson's.
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.clone(), vec![start.clone()])];
        while let Some((n, path)) = stack.pop() {
            for s in graph.successors(&n) {
                if s == start {
                    let set: BTreeSet<String> = path.iter().cloned().collect();
                    if reported.insert(set) {
                        let mut nodes = path.clone();
                        nodes.push(start.clone());
                        let sites = nodes
                            .windows(2)
                            .map(|w| graph.edges[&(w[0].clone(), w[1].clone())].clone())
                            .collect();
                        cycles.push(Cycle { nodes, sites });
                    }
                } else if !path.iter().any(|p| p == s) && s > start.as_str() {
                    // Canonicalize: only walk nodes ordered after `start`,
                    // so each cycle is found from its smallest node once.
                    let mut p = path.clone();
                    p.push(s.to_string());
                    stack.push((s.to_string(), p));
                }
            }
        }
    }
    cycles
}
