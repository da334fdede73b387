//! Instrumentation-coverage passes: cross-checks between the three
//! harnesses the repo already has.
//!
//! 1. **Durability** — a function that emits a `wal.*` / `persist.*` /
//!    `disk.*` / `recovery.*` obskit name is a durability site; it must
//!    also contain
//!    a `crashpoint!` in the same family, or crash testing silently lost
//!    coverage of that site. (Client-side `phoenix.recovery.*` phase
//!    events are exempt: the client has no crashpoints by design.)
//! 2. **Scenario** — every crashpoint name compiled into non-test code
//!    must be referenced by at least one scenario under `tests/` (exact
//!    string or a dot-terminated prefix like `"wal."`), or the fault
//!    enumeration can never reach it.
//! 3. **Phase** — the `RecoveryPhases` struct, its `NAMES` table and the
//!    emitting code must stay in sync: every phase field needs a
//!    `phoenix.recovery.<field>` entry and vice versa.
//! 4. **Gauge balance** — a gauge that is only ever `.add()`-ed a
//!    constant positive amount can never come back down: it is a level
//!    leak by construction (a session count that rises on admit must
//!    fall somewhere on release/evict). Gauges driven through `set`/`max`
//!    or through variable deltas are out of scope.

use super::items::FnDef;
use super::lexer::{Tok, TokKind};
use super::{SrcFile, Waivable, Workspace};
use std::path::PathBuf;

use crate::{Rule, Violation};

/// Names that flow into the durability cross-check. `disk` joined the
/// family with the storage fault-injection layer, and `admission` with
/// overload shedding: a function emitting `disk.*` events (fault draws,
/// corruption repair, scrubbing) or `admission.*` events (shed, admit,
/// evict — the registry mutations a crash can interleave with) must be
/// crash-testable like any other durability site.
pub fn is_durability_name(name: &str) -> bool {
    name.split('.')
        .any(|seg| seg == "wal" || seg == "persist" || seg == "disk" || seg == "admission")
        || name.starts_with("recovery.")
}

/// `crashpoint!("name")` invocations in a token run.
pub fn crashpoints_in(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        if toks[j].is_ident("crashpoint")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(s) = toks.get(j + 3).filter(|t| t.kind == TokKind::Str) {
                out.push((s.text.clone(), s.line));
            }
        }
    }
    out
}

const OBSKIT_MACROS: &[&str] = &["event", "span"];
const OBSKIT_CALLS: &[&str] = &[
    "record",
    "counter",
    "gauge",
    "observe",
    "emit_span",
    "emit_instant",
];

/// Obskit metric/event names emitted in a token run: the first string
/// argument of `event!`/`span!` and of the registry calls.
pub fn obskit_names_in(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name_tok = if OBSKIT_MACROS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            toks.get(j + 3)
        } else if OBSKIT_CALLS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        {
            toks.get(j + 2)
        } else {
            None
        };
        if let Some(s) = name_tok.filter(|t| t.kind == TokKind::Str) {
            out.push((s.text.clone(), s.line));
        }
    }
    out
}

fn fn_line_range(def: &FnDef) -> (usize, usize) {
    let lo = def.line as usize;
    let hi = def.body.last().map_or(lo, |t| t.line as usize);
    (lo, hi)
}

/// Pass 1: durability sites must carry a crashpoint. A waiver anywhere
/// in the function applies.
pub fn durability_pass(ws: &Workspace) -> Vec<Waivable<'_>> {
    let mut out = Vec::new();
    for file in &ws.files {
        for def in &file.items.fns {
            let emitted: Vec<(String, u32)> = obskit_names_in(&def.body)
                .into_iter()
                .filter(|(n, _)| is_durability_name(n))
                .collect();
            if emitted.is_empty() {
                continue;
            }
            let has_crash = crashpoints_in(&def.body)
                .iter()
                .any(|(n, _)| is_durability_name(n));
            if has_crash {
                continue;
            }
            let (lo, hi) = fn_line_range(def);
            let (name, line) = &emitted[0];
            out.push(Waivable {
                violation: Violation {
                    file: PathBuf::from(&file.rel),
                    line: *line as usize,
                    rule: Rule::Durability,
                    message: format!(
                        "{} emits durability event {name:?} but contains no durability crashpoint!",
                        def.qual_name()
                    ),
                },
                sites: (lo..=hi).map(|l| (file, l)).collect(),
            });
        }
    }
    out
}

/// Pass 2: every compiled crashpoint needs a covering test scenario.
pub fn scenario_pass(ws: &Workspace) -> Vec<Waivable<'_>> {
    let covered = |name: &str| {
        ws.test_literals
            .iter()
            .any(|l| l == name || (l.ends_with('.') && name.starts_with(l.as_str())))
    };
    let mut out = Vec::new();
    for file in &ws.files {
        for def in &file.items.fns {
            for (name, line) in crashpoints_in(&def.body) {
                if covered(&name) {
                    continue;
                }
                out.push(Waivable {
                    violation: Violation {
                        file: PathBuf::from(&file.rel),
                        line: line as usize,
                        rule: Rule::Scenario,
                        message: format!(
                            "crashpoint {name:?} is not referenced by any scenario under tests/"
                        ),
                    },
                    sites: vec![(file, line as usize)],
                });
            }
        }
    }
    out
}

/// One directly chained `gauge("<name>").add(<integer literal>)` site.
struct GaugeAdd {
    name: String,
    line: u32,
    negative: bool,
}

/// `gauge("name").add(±N)` chains in a token run. Only literal deltas
/// are reported: a handle bound to a variable or a computed delta can't
/// be sign-checked statically and is deliberately ignored.
fn gauge_adds_in(toks: &[Tok]) -> Vec<GaugeAdd> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        if !toks[j].is_ident("gauge")
            || !toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(j + 3).is_some_and(|t| t.is_punct(')'))
            || !toks.get(j + 4).is_some_and(|t| t.is_punct('.'))
            || !toks.get(j + 5).is_some_and(|t| t.is_ident("add"))
            || !toks.get(j + 6).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(name) = toks.get(j + 2).filter(|t| t.kind == TokKind::Str) else {
            continue;
        };
        let negative = toks.get(j + 7).is_some_and(|t| t.is_punct('-'));
        let delta = toks.get(j + 7 + usize::from(negative));
        if delta.is_some_and(|t| t.kind == TokKind::Num) {
            out.push(GaugeAdd {
                name: name.text.clone(),
                line: name.line,
                negative,
            });
        }
    }
    out
}

/// Pass 4: every gauge with constant positive `.add()` sites needs at
/// least one negative site, or the level can only ratchet upward — a
/// leak the storm tests would see as `sessions.active` never draining.
/// A waiver on any positive site applies.
pub fn gauge_balance_pass(ws: &Workspace) -> Vec<Waivable<'_>> {
    #[derive(Default)]
    struct Balance<'a> {
        positive: Vec<(&'a SrcFile, u32)>,
        has_neg: bool,
    }
    let mut gauges: std::collections::BTreeMap<String, Balance> = std::collections::BTreeMap::new();
    for file in &ws.files {
        for add in file.items.fns.iter().flat_map(|d| gauge_adds_in(&d.body)) {
            let entry = gauges.entry(add.name).or_default();
            if add.negative {
                entry.has_neg = true;
            } else {
                entry.positive.push((file, add.line));
            }
        }
    }
    let mut out = Vec::new();
    for (name, bal) in gauges {
        let Some(&(first, line)) = bal.positive.first() else {
            continue;
        };
        if bal.has_neg {
            continue;
        }
        out.push(Waivable {
            violation: Violation {
                file: PathBuf::from(&first.rel),
                line: line as usize,
                rule: Rule::GaugeBalance,
                message: format!(
                    "gauge {name:?} has constant positive add sites but no negative site — \
                     the level can only ratchet up (leak by construction)"
                ),
            },
            sites: bal.positive.iter().map(|&(f, l)| (f, l as usize)).collect(),
        });
    }
    out
}

/// Pass 3: recovery phases ↔ names table ↔ emission. Returns the number
/// of phases checked (0 = the struct was not found — the workspace test
/// guards against that going stale). A waiver on the struct applies.
pub fn phase_pass(ws: &Workspace) -> (usize, Vec<Waivable<'_>>) {
    let Some((file, def)) = ws.files.iter().find_map(|f| {
        f.items
            .structs
            .iter()
            .find(|s| s.name == "RecoveryPhases")
            .map(|s| (f, s))
    }) else {
        return (0, Vec::new());
    };
    let mut out = Vec::new();
    let names = const_str_array(&file.toks, "NAMES");
    for f in &def.fields {
        let want = format!("phoenix.recovery.{}", f.name);
        if !names.contains(&want) {
            out.push(Violation {
                file: PathBuf::from(&file.rel),
                line: def.line as usize,
                rule: Rule::Phase,
                message: format!(
                    "recovery phase field {:?} has no {want:?} entry in RecoveryPhases::NAMES",
                    f.name
                ),
            });
        }
    }
    for n in &names {
        let field = n.rsplit('.').next().unwrap_or_default();
        if !def.fields.iter().any(|f| f.name == field) {
            out.push(Violation {
                file: PathBuf::from(&file.rel),
                line: def.line as usize,
                rule: Rule::Phase,
                message: format!("NAMES entry {n:?} matches no RecoveryPhases field"),
            });
        }
    }
    // The defining file must actually publish the phases as spans.
    if !file.toks.iter().any(|t| t.is_ident("emit_span")) {
        out.push(Violation {
            file: PathBuf::from(&file.rel),
            line: def.line as usize,
            rule: Rule::Phase,
            message: "recovery phases are never emitted via obskit emit_span in this file".into(),
        });
    }
    let site = (file, def.line as usize);
    let out = out
        .into_iter()
        .map(|violation| Waivable {
            violation,
            sites: vec![site],
        })
        .collect();
    (def.fields.len(), out)
}

/// String entries of `const NAME: […] = ["a", "b", …];` in a file.
fn const_str_array(toks: &[Tok], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        if toks[j].is_ident(name) && toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            // Skip the type annotation up to the `=`. The array length in
            // `[&'static str; 6]` hides a `;` inside brackets, so only a
            // top-level `;` (no initializer at all) ends the search.
            let mut k = j + 1;
            let mut depth = 0i32;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('[') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct(')') {
                    depth -= 1;
                } else if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                    break;
                }
                k += 1;
            }
            if !toks.get(k).is_some_and(|t| t.is_punct('=')) {
                continue; // declaration without an initializer
            }
            while k < toks.len() && !toks[k].is_punct(';') {
                if toks[k].kind == TokKind::Str {
                    out.push(toks[k].text.clone());
                }
                k += 1;
            }
            if !out.is_empty() {
                break;
            }
        }
    }
    out
}
