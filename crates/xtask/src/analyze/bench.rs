//! Bench-coverage pass: keeps the bench binaries, their JSON twins and
//! the blessed baselines from drifting apart.
//!
//! 1. **Twin emission** — every binary under `crates/bench/src/bin/`
//!    must call `bench::emit_json` (directly or via a helper that the
//!    token scan still sees as an `emit_json(` call site). A bench that
//!    prints a table but never writes its machine-readable twin is
//!    invisible to `cargo xtask bench-gate`, so the perf gate silently
//!    loses that workload.
//! 2. **Stale baselines** — every `<stem>.json` under `bench_baselines/`
//!    (and each immediate subdirectory, e.g. the `ci/` fast-subset) must
//!    correspond to an existing bench binary, or be declared in that
//!    directory's `gate.json` under `gate.extra`. A baseline whose
//!    binary was renamed or deleted would otherwise pass the gate
//!    forever by comparing against nothing.
//! 3. **Missing baselines** — the *root* `bench_baselines/` directory is
//!    the full blessed set: every bench binary must have a baseline
//!    there (subdirectories are curated subsets and only get the stale
//!    check). A new bench with no blessed baseline is a workload the
//!    gate never guards.
//! 4. **Dangling extras** — a `gate.extra` entry with no matching
//!    baseline file is leftover config and is flagged too.
//!
//! A missing `emit_json` call can be waived in-source with
//! `// analyze:allow(bench): reason`; the baseline checks point at JSON
//! files, which have no comments, so they are not waivable — fix the
//! tree instead.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use super::{SrcFile, Waivable, Workspace};
use crate::benchgate::{GateConfig, MANIFEST};
use crate::{Rule, Violation};

/// One baseline directory as seen on disk: its root-relative path, the
/// `.json` stems it holds, the `gate.extra` names its manifest
/// declares, and any manifest parse error (reported as a violation
/// rather than aborting the whole analysis).
#[derive(Debug, Clone, Default)]
pub struct BaselineDir {
    pub rel: String,
    pub stems: Vec<String>,
    pub extra: Vec<String>,
    pub manifest_error: Option<String>,
}

/// Scan `<root>/bench_baselines` and its immediate subdirectories.
/// Absence of the directory is not an error — a checkout without
/// blessed baselines simply has nothing to check.
pub fn load_baseline_dirs(root: &Path) -> std::io::Result<Vec<BaselineDir>> {
    let top = root.join("bench_baselines");
    if !top.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs = vec![("bench_baselines".to_string(), top.clone())];
    let mut subs: Vec<PathBuf> = std::fs::read_dir(&top)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    subs.sort();
    for sub in subs {
        let name = sub
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        dirs.push((format!("bench_baselines/{name}"), sub));
    }
    let mut out = Vec::new();
    for (rel, dir) in dirs {
        let stems = crate::benchgate::baseline_names(&dir)?;
        let (extra, manifest_error) = match GateConfig::load(&dir) {
            Ok(cfg) => (cfg.extra, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        out.push(BaselineDir {
            rel,
            stems,
            extra,
            manifest_error,
        });
    }
    Ok(out)
}

/// Bench binaries in the loaded workspace: `(bin_name, file)` for every
/// `crates/bench/src/bin/<bin_name>.rs`.
pub fn bench_bins(ws: &Workspace) -> Vec<(String, &SrcFile)> {
    ws.files
        .iter()
        .filter_map(|f| {
            let stem = f
                .rel
                .strip_prefix("crates/bench/src/bin/")?
                .strip_suffix(".rs")?;
            // Nested helper modules under bin/ are not binaries.
            if stem.contains('/') {
                return None;
            }
            Some((stem.to_string(), f))
        })
        .collect()
}

fn calls_emit_json(file: &SrcFile) -> bool {
    file.toks.iter().enumerate().any(|(j, t)| {
        t.is_ident("emit_json") && file.toks.get(j + 1).is_some_and(|n| n.is_punct('('))
    })
}

/// Pass 5: bench twins and baselines stay in lockstep with the bench
/// binaries (see the module docs for the four checks).
pub fn bench_pass(ws: &Workspace) -> Vec<Waivable<'_>> {
    let mut out = Vec::new();
    // The baseline checks below have no waivable site.
    let mut found = Vec::new();
    let bins = bench_bins(ws);
    let bin_names: BTreeSet<&str> = bins.iter().map(|(n, _)| n.as_str()).collect();

    for (name, file) in &bins {
        if calls_emit_json(file) {
            continue;
        }
        let line = file
            .items
            .fns
            .iter()
            .find(|d| d.name == "main")
            .map_or(1, |d| d.line as usize);
        out.push(Waivable {
            violation: Violation {
                file: PathBuf::from(&file.rel),
                line,
                rule: Rule::Bench,
                message: format!(
                    "bench binary {name:?} never calls emit_json — its results are \
                     invisible to `cargo xtask bench-gate`"
                ),
            },
            sites: vec![(*file, line)],
        });
    }

    for dir in &ws.baseline_dirs {
        if let Some(err) = &dir.manifest_error {
            found.push(Violation {
                file: PathBuf::from(format!("{}/{MANIFEST}", dir.rel)),
                line: 0,
                rule: Rule::Bench,
                message: format!("unreadable gate manifest: {err}"),
            });
        }
        for stem in &dir.stems {
            if bin_names.contains(stem.as_str()) || dir.extra.iter().any(|e| e == stem) {
                continue;
            }
            found.push(Violation {
                file: PathBuf::from(format!("{}/{stem}.json", dir.rel)),
                line: 0,
                rule: Rule::Bench,
                message: format!(
                    "stale baseline: no bench binary named {stem:?} and no \
                     `gate.extra` entry in {}/{MANIFEST} declares it",
                    dir.rel
                ),
            });
        }
        for extra in &dir.extra {
            if !dir.stems.iter().any(|s| s == extra) {
                found.push(Violation {
                    file: PathBuf::from(format!("{}/{MANIFEST}", dir.rel)),
                    line: 0,
                    rule: Rule::Bench,
                    message: format!(
                        "gate.extra entry {extra:?} has no {}/{extra}.json baseline",
                        dir.rel
                    ),
                });
            }
        }
        if dir.rel == "bench_baselines" {
            for name in &bin_names {
                if !dir.stems.iter().any(|s| s == name) {
                    found.push(Violation {
                        file: PathBuf::from(format!("crates/bench/src/bin/{name}.rs")),
                        line: 1,
                        rule: Rule::Bench,
                        message: format!(
                            "bench binary {name:?} has no blessed baseline under \
                             bench_baselines/ — run it and `cargo xtask bench-gate --bless`"
                        ),
                    });
                }
            }
        }
    }
    out.extend(found.into_iter().map(Waivable::from));
    out
}
