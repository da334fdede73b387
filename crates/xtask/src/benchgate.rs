//! bench-gate: the perf-regression gate over the benchmark JSON twins.
//!
//! Every harness under `crates/bench/src/bin` emits a machine-readable
//! obskit snapshot (`bench_results/<name>.json`). This module compares
//! those against the *blessed* copies under `bench_baselines/` with
//! per-metric tolerance bands from a small in-tree manifest
//! (`bench_baselines/gate.json`, read with `obskit::json` by
//! [`GateConfig::parse`]), and renders a readable per-metric delta
//! report plus a `--json` twin for CI artifacts.
//!
//! Semantics:
//!
//! * **counters** drift-check in both directions (`counter_rel`): a
//!   counter that halved is as suspicious as one that doubled;
//! * **gauges** must land within `gauge_abs` of the baseline — residual
//!   levels (sessions not drained, pending slots leaked) are bugs, so
//!   the default band is exactly 0;
//! * **histograms** compare sample counts in both directions
//!   (`count_rel`) and p50/p95/p99 upward only (`quantile_rel`; a faster
//!   run is reported as *improved*, never failed). `quantile_floor`
//!   suppresses regressions whose absolute delta is below the floor —
//!   sub-microsecond jitter in a nanosecond histogram is not a signal;
//! * metrics present only in the current run are *new* (informational;
//!   blessing adopts them), metrics missing from the current run fail.
//!
//! Baselines change only through an explicit `--bless`, which copies the
//! current results over the baselines verbatim.
//!
//! `--series` validates the JSON-lines time series the streaming
//! exporter ([`obskit::stream`]) writes during long soaks: schema and
//! line-by-line parseability, strictly sequential interval numbers,
//! non-negative counter/histogram deltas, and the manifest's gauge
//! invariants — `monotone` gauges never decrease, `bounded` gauges never
//! exceed a cap named in the series header meta, `zero_final` gauges are
//! back to zero by the final interval.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use obskit::json::Json;

// ---------------------------------------------------------------------------
// Manifest (gate.json)
// ---------------------------------------------------------------------------

/// The manifest's file name in a baseline directory. It sits next to the
/// baselines but is not one: [`baseline_names`] skips it.
pub const MANIFEST: &str = "gate.json";

/// Tolerance bands; every field optional so bench- and metric-level
/// overrides can shadow individual knobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tol {
    /// Relative band for counters, both directions (0.5 = ±50%).
    pub counter_rel: Option<f64>,
    /// Absolute band for gauges.
    pub gauge_abs: Option<f64>,
    /// Relative band for histogram p50/p95/p99, upward only
    /// (3.0 = up to 4× the baseline passes).
    pub quantile_rel: Option<f64>,
    /// Relative band for histogram sample counts, both directions.
    pub count_rel: Option<f64>,
    /// Absolute floor under which a quantile increase is never a
    /// regression (nanoseconds for duration histograms).
    pub quantile_floor: Option<f64>,
}

/// Hard defaults when neither the manifest default nor an override sets
/// a knob.
const HARD: Tol = Tol {
    counter_rel: Some(0.5),
    gauge_abs: Some(0.0),
    quantile_rel: Some(3.0),
    count_rel: Some(0.5),
    quantile_floor: Some(0.0),
};

impl Tol {
    fn overlay(&self, over: &Tol) -> Tol {
        Tol {
            counter_rel: over.counter_rel.or(self.counter_rel),
            gauge_abs: over.gauge_abs.or(self.gauge_abs),
            quantile_rel: over.quantile_rel.or(self.quantile_rel),
            count_rel: over.count_rel.or(self.count_rel),
            quantile_floor: over.quantile_floor.or(self.quantile_floor),
        }
    }

    fn set(&mut self, key: &str, v: f64) -> bool {
        match key {
            "counter_rel" => self.counter_rel = Some(v),
            "gauge_abs" => self.gauge_abs = Some(v),
            "quantile_rel" => self.quantile_rel = Some(v),
            "count_rel" => self.count_rel = Some(v),
            "quantile_floor" => self.quantile_floor = Some(v),
            _ => return false,
        }
        true
    }
}

/// Per-benchmark configuration: tolerance overrides, skip patterns, and
/// per-metric overrides.
#[derive(Debug, Clone, Default)]
pub struct BenchCfg {
    pub tol: Tol,
    /// Metric-name patterns to exclude from comparison (exact, or a
    /// trailing-`*` prefix like `"sqlengine.*"`).
    pub skip: Vec<String>,
    /// Per-metric tolerance overrides (exact names).
    pub metrics: BTreeMap<String, Tol>,
}

/// Invariants for `--series` validation.
#[derive(Debug, Clone)]
pub struct SeriesCfg {
    /// Minimum number of interval lines a series must contain.
    pub min_intervals: u64,
    /// Gauges that must read 0 in the final interval (if present at all).
    pub zero_final: Vec<String>,
    /// Gauges that must never decrease across intervals (high-water
    /// marks).
    pub monotone: Vec<String>,
    /// `(gauge, meta_key)`: the gauge must never exceed the numeric cap
    /// stored under `meta_key` in the series header. Skipped when the
    /// header has no such key (workloads without that cap).
    pub bounded: Vec<(String, String)>,
}

impl Default for SeriesCfg {
    fn default() -> SeriesCfg {
        SeriesCfg {
            min_intervals: 1,
            zero_final: Vec::new(),
            monotone: Vec::new(),
            bounded: Vec::new(),
        }
    }
}

/// The parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct GateConfig {
    pub default: Tol,
    pub benches: BTreeMap<String, BenchCfg>,
    pub series: SeriesCfg,
    /// Baseline names that do not correspond to a bench binary (e.g.
    /// snapshots exported by CI test steps) — consumed by the
    /// `cargo xtask analyze` stale-baseline pass.
    pub extra: Vec<String>,
}

impl GateConfig {
    /// Parse a manifest: a JSON object with optional `default`, `series`,
    /// `gate` and `bench` sections. Any object may carry a `"why"` string
    /// saying why its bands are what they are; every other unknown
    /// section or key is a hard error — a typo'd tolerance that silently
    /// parses is a gate that silently stopped gating.
    pub fn parse(text: &str) -> Result<GateConfig, String> {
        let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let mut cfg = GateConfig::default();
        for (section, val) in fields(&doc, "the manifest")? {
            match section.as_str() {
                "default" => cfg.default = tol(val, "default")?,
                "series" => cfg.series = series(val)?,
                "gate" => {
                    for (key, v) in fields(val, "gate")? {
                        match key.as_str() {
                            "extra" => cfg.extra = str_list(v, "gate.extra")?,
                            _ => return Err(unknown_key("gate", key)),
                        }
                    }
                }
                "bench" => {
                    for (name, b) in fields(val, "bench")? {
                        let cfg_b = bench(b, &format!("bench.{name}"))?;
                        cfg.benches.insert(name.clone(), cfg_b);
                    }
                }
                _ => {
                    return Err(format!(
                        "unknown section {section:?} (expected default, series, gate or bench)"
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// Load `<dir>/gate.json`; a missing manifest yields the defaults.
    pub fn load(baselines: &Path) -> Result<GateConfig, String> {
        let path = baselines.join(MANIFEST);
        if !path.exists() {
            return Ok(GateConfig::default());
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        GateConfig::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The effective tolerances for one metric of one bench.
    fn tol_for(&self, bench: &str, metric: &str) -> Tol {
        let mut t = HARD.overlay(&self.default);
        if let Some(b) = self.benches.get(bench) {
            t = t.overlay(&b.tol);
            if let Some(m) = b.metrics.get(metric) {
                t = t.overlay(m);
            }
        }
        t
    }

    fn skipped(&self, bench: &str, metric: &str) -> bool {
        self.benches
            .get(bench)
            .is_some_and(|b| b.skip.iter().any(|p| pat_matches(p, metric)))
    }
}

/// The entries of manifest object `v` at `path`, minus its `"why"` note
/// (which must be a string).
fn fields<'a>(v: &'a Json, path: &str) -> Result<Vec<(&'a String, &'a Json)>, String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{path} must be an object"))?;
    let mut out = Vec::new();
    for (key, val) in obj {
        if key != "why" {
            out.push((key, val));
        } else if val.as_str().is_none() {
            return Err(format!("{path}.why must be a string"));
        }
    }
    Ok(out)
}

fn unknown_key(path: &str, key: &str) -> String {
    format!("unknown key {key:?} in {path}")
}

fn num(v: &Json, path: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("{path} must be a number"))
}

fn str_list(v: &Json, path: &str) -> Result<Vec<String>, String> {
    v.as_arr()
        .and_then(|items| {
            items
                .iter()
                .map(|i| i.as_str().map(str::to_string))
                .collect()
        })
        .ok_or_else(|| format!("{path} must be a string array"))
}

/// A tolerance object: every key other than `"why"` is a [`Tol`] knob.
fn tol(v: &Json, path: &str) -> Result<Tol, String> {
    let mut t = Tol::default();
    for (key, val) in fields(v, path)? {
        if !t.set(key, num(val, &format!("{path}.{key}"))?) {
            return Err(unknown_key(path, key));
        }
    }
    Ok(t)
}

/// A `bench.<name>` object: tolerance knobs, `skip` patterns, and a
/// `metric` object of per-metric tolerance objects.
fn bench(v: &Json, path: &str) -> Result<BenchCfg, String> {
    let mut b = BenchCfg::default();
    for (key, val) in fields(v, path)? {
        let key_path = format!("{path}.{key}");
        match key.as_str() {
            "skip" => b.skip = str_list(val, &key_path)?,
            "metric" => {
                for (metric, m) in fields(val, &key_path)? {
                    let t = tol(m, &format!("{key_path}.{metric:?}"))?;
                    b.metrics.insert(metric.clone(), t);
                }
            }
            _ => {
                if !b.tol.set(key, num(val, &key_path)?) {
                    return Err(unknown_key(path, key));
                }
            }
        }
    }
    Ok(b)
}

fn series(v: &Json) -> Result<SeriesCfg, String> {
    let mut cfg = SeriesCfg::default();
    for (key, val) in fields(v, "series")? {
        let path = format!("series.{key}");
        match key.as_str() {
            "min_intervals" => cfg.min_intervals = num(val, &path)? as u64,
            "zero_final" => cfg.zero_final = str_list(val, &path)?,
            "monotone" => cfg.monotone = str_list(val, &path)?,
            "bounded" => {
                cfg.bounded = str_list(val, &path)?
                    .iter()
                    .map(|e| {
                        let (g, m) = e.split_once("<=").ok_or_else(|| {
                            format!("bounded entry {e:?} needs `gauge <= meta.key`")
                        })?;
                        let m = m
                            .trim()
                            .strip_prefix("meta.")
                            .ok_or_else(|| format!("bounded cap in {e:?} must be `meta.<key>`"))?;
                        Ok((g.trim().to_string(), m.to_string()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
            }
            _ => return Err(unknown_key("series", key)),
        }
    }
    Ok(cfg)
}

fn pat_matches(pat: &str, name: &str) -> bool {
    match pat.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pat == name,
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within band.
    Ok,
    /// A quantile got meaningfully better (outside the band, downward).
    Improved,
    /// Present in the current run only; blessing will adopt it.
    New,
    /// Outside the band in the failing direction.
    Regressed,
    /// The baseline has it, the current run lost it.
    Missing,
    /// Excluded by a manifest skip pattern.
    Skipped,
}

impl Status {
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::New => "new",
            Status::Regressed => "REGRESSED",
            Status::Missing => "MISSING",
            Status::Skipped => "skipped",
        }
    }

    fn failing(self) -> bool {
        matches!(self, Status::Regressed | Status::Missing)
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub bench: String,
    /// `counter <name>`, `gauge <name>`, or `<name> p50/p95/p99/count`.
    pub metric: String,
    pub kind: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// The band the comparison used (relative, except `gauge`: absolute).
    pub band: f64,
    pub status: Status,
}

/// The full gate outcome.
#[derive(Debug, Default)]
pub struct GateReport {
    pub deltas: Vec<MetricDelta>,
    /// Hard errors: unreadable/malformed files, missing current results.
    pub errors: Vec<String>,
    /// Non-failing observations (results without baselines, bless log).
    pub notes: Vec<String>,
    /// `--series` outcomes: `(path, errors)`.
    pub series: Vec<(String, Vec<String>)>,
}

impl GateReport {
    pub fn failed(&self) -> bool {
        !self.errors.is_empty()
            || self.deltas.iter().any(|d| d.status.failing())
            || self.series.iter().any(|(_, errs)| !errs.is_empty())
    }
}

fn load_snapshot(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc =
        Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    if doc.get("obskit").and_then(Json::as_f64) != Some(1.0) {
        return Err(format!(
            "{} is not an obskit v1 snapshot (missing/wrong \"obskit\" tag)",
            path.display()
        ));
    }
    Ok(doc)
}

fn num_map(doc: &Json, key: &str) -> BTreeMap<String, f64> {
    doc.get(key)
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

/// Histogram fields the gate compares.
fn hist_fields(h: &Json) -> Vec<(&'static str, f64)> {
    ["count", "p50", "p95", "p99"]
        .into_iter()
        .filter_map(|k| Some((k, h.get(k).and_then(Json::as_f64)?)))
        .collect()
}

/// Compare one bench's current snapshot against its baseline.
pub fn compare_bench(
    bench: &str,
    baseline: &Json,
    current: &Json,
    cfg: &GateConfig,
) -> Vec<MetricDelta> {
    let mut out = Vec::new();
    let mut push = |metric: &str, kind: &'static str, b: f64, c: f64, band: f64, status: Status| {
        out.push(MetricDelta {
            bench: bench.to_string(),
            metric: metric.to_string(),
            kind,
            baseline: b,
            current: c,
            band,
            status,
        });
    };

    // Counters: both directions, relative. Gauges: absolute band.
    for (section, kind) in [("counters", "counter"), ("gauges", "gauge")] {
        let rel = kind == "counter";
        let (bm, cm) = (num_map(baseline, section), num_map(current, section));
        for (name, &b) in &bm {
            let tol = cfg.tol_for(bench, name);
            let band = if rel {
                tol.counter_rel.unwrap_or(0.5)
            } else {
                tol.gauge_abs.unwrap_or(0.0)
            };
            let c = cm.get(name).copied();
            if cfg.skipped(bench, name) {
                push(name, kind, b, c.unwrap_or(0.0), band, Status::Skipped);
                continue;
            }
            let Some(c) = c else {
                push(name, kind, b, 0.0, band, Status::Missing);
                continue;
            };
            let off = (c - b).abs() / if rel { b.max(1.0) } else { 1.0 };
            let status = if off <= band {
                Status::Ok
            } else {
                Status::Regressed
            };
            push(name, kind, b, c, band, status);
        }
        for (name, &c) in &cm {
            if !bm.contains_key(name) && !cfg.skipped(bench, name) {
                push(name, kind, 0.0, c, 0.0, Status::New);
            }
        }
    }

    // Histograms: count both ways, quantiles upward only.
    let empty = BTreeMap::new();
    let bh = baseline
        .get("histograms")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    let ch = current
        .get("histograms")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    for (name, bhist) in bh {
        let tol = cfg.tol_for(bench, name);
        if cfg.skipped(bench, name) {
            push(name, "histogram", 0.0, 0.0, 0.0, Status::Skipped);
            continue;
        }
        let Some(chist) = ch.get(name) else {
            push(name, "histogram", 0.0, 0.0, 0.0, Status::Missing);
            continue;
        };
        let bfields: BTreeMap<&str, f64> = hist_fields(bhist).into_iter().collect();
        let cfields: BTreeMap<&str, f64> = hist_fields(chist).into_iter().collect();
        for (kind, &b) in &bfields {
            let c = cfields.get(kind).copied();
            if *kind == "count" {
                let band = tol.count_rel.unwrap_or(0.5);
                let c = c.unwrap_or(0.0);
                let rel = (c - b).abs() / b.max(1.0);
                let status = if rel <= band {
                    Status::Ok
                } else {
                    Status::Regressed
                };
                push(name, "count", b, c, band, status);
            } else {
                let band = tol.quantile_rel.unwrap_or(3.0);
                let floor = tol.quantile_floor.unwrap_or(0.0);
                let Some(c) = c else {
                    // Quantile vanished: the count comparison above already
                    // flags the empty histogram; skip the quantile row.
                    continue;
                };
                let status = if c > b * (1.0 + band) && (c - b) > floor {
                    Status::Regressed
                } else if c * (1.0 + band) < b && (b - c) > floor {
                    Status::Improved
                } else {
                    Status::Ok
                };
                push(name, kind, b, c, band, status);
            }
        }
    }
    for (name, chist) in ch {
        if !bh.contains_key(name) && !cfg.skipped(bench, name) {
            let c = chist.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            push(name, "count", 0.0, c, 0.0, Status::New);
        }
    }
    out
}

/// Baseline JSON files directly under `dir` (no recursion — `ci/` is its
/// own gate; the [`MANIFEST`] is not a baseline), sorted by name.
pub fn baseline_names(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for e in std::fs::read_dir(dir)? {
        let p = e?.path();
        let is_manifest = p.file_name().and_then(|n| n.to_str()) == Some(MANIFEST);
        if p.is_file() && p.extension().and_then(|x| x.to_str()) == Some("json") && !is_manifest {
            if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Run the gate: every baseline under `baselines` is compared against
/// `results/<name>.json`.
pub fn run_gate(results: &Path, baselines: &Path, cfg: &GateConfig) -> GateReport {
    let mut report = GateReport::default();
    let names = match baseline_names(baselines) {
        Ok(n) => n,
        Err(e) => {
            report.errors.push(format!(
                "cannot list baselines {}: {e}",
                baselines.display()
            ));
            return report;
        }
    };
    if names.is_empty() {
        report.errors.push(format!(
            "no baselines under {} — nothing to gate",
            baselines.display()
        ));
        return report;
    }
    for name in &names {
        let bpath = baselines.join(format!("{name}.json"));
        let cpath = results.join(format!("{name}.json"));
        let baseline = match load_snapshot(&bpath) {
            Ok(d) => d,
            Err(e) => {
                report.errors.push(e);
                continue;
            }
        };
        if !cpath.exists() {
            report.errors.push(format!(
                "baseline {name} has no current result {} — run the bench or drop the stale \
                 baseline",
                cpath.display()
            ));
            continue;
        }
        let current = match load_snapshot(&cpath) {
            Ok(d) => d,
            Err(e) => {
                report.errors.push(e);
                continue;
            }
        };
        report
            .deltas
            .extend(compare_bench(name, &baseline, &current, cfg));
    }
    // Current results that have no baseline yet: informational.
    if let Ok(current_names) = baseline_names(results) {
        for n in current_names {
            if !names.contains(&n) {
                report.notes.push(format!(
                    "result {n}.json has no baseline — bless to adopt it"
                ));
            }
        }
    }
    report
}

/// `--bless`: copy every `results/*.json` over `baselines/<name>.json`.
/// Returns the blessed names.
pub fn bless(results: &Path, baselines: &Path) -> Result<Vec<String>, String> {
    let names = baseline_names(results)
        .map_err(|e| format!("cannot list results {}: {e}", results.display()))?;
    if names.is_empty() {
        return Err(format!(
            "no results under {} — nothing to bless",
            results.display()
        ));
    }
    std::fs::create_dir_all(baselines)
        .map_err(|e| format!("cannot create {}: {e}", baselines.display()))?;
    for name in &names {
        let from = results.join(format!("{name}.json"));
        // Validate before blessing: a malformed result must never become
        // the baseline the gate trusts.
        load_snapshot(&from)?;
        let to = baselines.join(format!("{name}.json"));
        std::fs::copy(&from, &to)
            .map_err(|e| format!("cannot bless {} -> {}: {e}", from.display(), to.display()))?;
    }
    Ok(names)
}

// ---------------------------------------------------------------------------
// Series validation
// ---------------------------------------------------------------------------

/// Validate one JSON-lines series file against the manifest invariants.
/// Returns the violations (empty = valid).
pub fn check_series(path: &Path, cfg: &SeriesCfg) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read series {}: {e}", path.display())],
    };
    check_series_text(&text, cfg, &path.display().to_string())
}

/// Same, over in-memory text (fixture tests).
pub fn check_series_text(text: &str, cfg: &SeriesCfg, origin: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return vec![format!("{origin}: empty series file")];
    };
    let header = match Json::parse(header) {
        Ok(h) => h,
        Err(e) => return vec![format!("{origin}:1: header is not valid JSON: {e}")],
    };
    if header.get("obskit_series").and_then(Json::as_f64) != Some(1.0) {
        return vec![format!(
            "{origin}:1: missing \"obskit_series\": 1 header tag"
        )];
    }
    let meta: BTreeMap<String, f64> = header
        .get("meta")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    v.as_str()
                        .and_then(|s| s.parse::<f64>().ok())
                        .map(|n| (k.clone(), n))
                })
                .collect()
        })
        .unwrap_or_default();

    let mut intervals = 0u64;
    let mut last_gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut monotone_prev: BTreeMap<String, f64> = BTreeMap::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = match Json::parse(line) {
            Ok(d) => d,
            Err(e) => {
                errs.push(format!(
                    "{origin}:{lineno}: interval is not valid JSON: {e}"
                ));
                continue;
            }
        };
        intervals += 1;
        match doc.get("seq").and_then(Json::as_f64) {
            Some(s) if s == intervals as f64 => {}
            other => errs.push(format!(
                "{origin}:{lineno}: seq {other:?} breaks the 1,2,3,… interval sequence \
                 (expected {intervals})"
            )),
        }
        for (name, v) in num_map(&doc, "counters") {
            if v < 0.0 {
                errs.push(format!(
                    "{origin}:{lineno}: counter delta {name:?} is negative ({v}) — monotone \
                     counters can only grow"
                ));
            }
        }
        if let Some(hists) = doc.get("histograms").and_then(Json::as_obj) {
            for (name, h) in hists {
                for (k, v) in hist_fields(h) {
                    if k == "count" && v < 0.0 {
                        errs.push(format!(
                            "{origin}:{lineno}: histogram delta {name:?} has negative count ({v})"
                        ));
                    }
                }
            }
        }
        let gauges = num_map(&doc, "gauges");
        for g in &cfg.monotone {
            if let (Some(&prev), Some(&cur)) = (monotone_prev.get(g), gauges.get(g)) {
                if cur < prev {
                    errs.push(format!(
                        "{origin}:{lineno}: monotone gauge {g:?} decreased ({prev} -> {cur})"
                    ));
                }
            }
            if let Some(&cur) = gauges.get(g) {
                monotone_prev.insert(g.clone(), cur);
            }
        }
        for (g, meta_key) in &cfg.bounded {
            if let (Some(&cur), Some(&cap)) = (gauges.get(g), meta.get(meta_key)) {
                if cur > cap {
                    errs.push(format!(
                        "{origin}:{lineno}: gauge {g:?} = {cur} exceeds meta.{meta_key} cap {cap}"
                    ));
                }
            }
        }
        last_gauges = gauges;
    }
    if intervals < cfg.min_intervals {
        errs.push(format!(
            "{origin}: only {intervals} interval(s); the series gate requires at least {}",
            cfg.min_intervals
        ));
    }
    for g in &cfg.zero_final {
        if let Some(&v) = last_gauges.get(g) {
            if v != 0.0 {
                errs.push(format!(
                    "{origin}: gauge {g:?} is {v} in the final interval — must drain to zero"
                ));
            }
        }
    }
    errs
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn pct(delta: f64, base: f64) -> String {
    let rel = 100.0 * (delta / base.max(1e-12));
    format!("{rel:+.1}%")
}

/// Human-readable delta report: failures in full, healthy benches as a
/// one-line summary each.
pub fn render_text(report: &GateReport) -> String {
    let mut out = String::new();
    let mut by_bench: BTreeMap<&str, Vec<&MetricDelta>> = BTreeMap::new();
    for d in &report.deltas {
        by_bench.entry(&d.bench).or_default().push(d);
    }
    for (bench, deltas) in &by_bench {
        let count = |s: Status| deltas.iter().filter(|d| d.status == s).count();
        let _ = writeln!(
            out,
            "{bench}: {} compared — {} ok, {} improved, {} new, {} skipped, {} regressed, \
             {} missing",
            deltas.len(),
            count(Status::Ok),
            count(Status::Improved),
            count(Status::New),
            count(Status::Skipped),
            count(Status::Regressed),
            count(Status::Missing),
        );
        for d in deltas {
            if d.status.failing() || d.status == Status::Improved {
                let band = if d.kind == "gauge" {
                    format!("band ±{}", d.band)
                } else if d.kind == "counter" || d.kind == "count" {
                    format!("band ±{:.0}%", d.band * 100.0)
                } else {
                    format!("band +{:.0}%", d.band * 100.0)
                };
                let _ = writeln!(
                    out,
                    "  {:9} {} {}: {} -> {} ({}, {band})",
                    d.status.name(),
                    d.kind,
                    d.metric,
                    d.baseline,
                    d.current,
                    pct(d.current - d.baseline, d.baseline),
                );
            }
        }
    }
    for (path, errs) in &report.series {
        if errs.is_empty() {
            let _ = writeln!(out, "series {path}: ok");
        } else {
            let _ = writeln!(out, "series {path}: {} violation(s)", errs.len());
            for e in errs {
                let _ = writeln!(out, "  {e}");
            }
        }
    }
    for n in &report.notes {
        let _ = writeln!(out, "note: {n}");
    }
    for e in &report.errors {
        let _ = writeln!(out, "error: {e}");
    }
    let _ = writeln!(
        out,
        "bench-gate: {}",
        if report.failed() { "FAILED" } else { "clean" }
    );
    out
}

fn jstr(s: &str) -> String {
    obskit::export::json_str(s)
}

/// `[a,b,…]` from already-rendered JSON items.
pub(crate) fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Machine-readable report, schema-versioned like the other artifacts.
pub fn render_json(report: &GateReport) -> String {
    let deltas = report.deltas.iter().map(|d| {
        format!(
            "{{\"bench\":{},\"metric\":{},\"kind\":{},\"baseline\":{},\"current\":{},\
             \"band\":{},\"status\":{}}}",
            jstr(&d.bench),
            jstr(&d.metric),
            jstr(d.kind),
            d.baseline,
            d.current,
            d.band,
            jstr(d.status.name())
        )
    });
    let series = report.series.iter().map(|(path, errs)| {
        let errs = json_list(errs.iter().map(|e| jstr(e)));
        format!("{{\"path\":{},\"errors\":{errs}}}", jstr(path))
    });
    format!(
        "{{\"bench_gate\":1,\"failed\":{},\"deltas\":{},\"series\":{},\"notes\":{},\
         \"errors\":{}}}\n",
        report.failed(),
        json_list(deltas),
        json_list(series),
        json_list(report.notes.iter().map(|n| jstr(n))),
        json_list(report.errors.iter().map(|e| jstr(e))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn snap(counters: &str, gauges: &str, hists: &str) -> String {
        format!(
            "{{\"obskit\": 1, \"meta\": {{\"bench\": \"demo\"}}, \"counters\": {{{counters}}}, \
             \"gauges\": {{{gauges}}}, \"histograms\": {{{hists}}}, \"events\": []}}"
        )
    }

    fn hist(count: u64, p50: u64, p95: u64, p99: u64) -> String {
        format!(
            "\"lat\": {{\"count\": {count}, \"sum\": 0, \"min\": 1, \"max\": {p99}, \
             \"mean\": 1.0, \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"buckets\": []}}"
        )
    }

    fn parse(doc: &str) -> Json {
        Json::parse(doc).expect("fixture JSON")
    }

    fn statuses(deltas: &[MetricDelta]) -> BTreeMap<String, Status> {
        deltas
            .iter()
            .map(|d| (format!("{} {}", d.kind, d.metric), d.status))
            .collect()
    }

    #[test]
    fn manifest_parses_every_section_kind() {
        let cfg = GateConfig::parse(
            r#"{
              "why": "top-level note",
              "default": {"counter_rel": 0.25, "quantile_rel": 2.0},
              "series": {
                "min_intervals": 3,
                "zero_final": ["sessions.active", "admission.pending"],
                "monotone": ["admission.pending.peak"],
                "bounded": ["admission.pending.peak <= meta.pending_cap"]
              },
              "gate": {"why": "adopted snapshot", "extra": ["ci_group_commit"]},
              "bench": {
                "session_scale": {
                  "skip": ["sqlengine.*"],
                  "quantile_rel": 7.0,
                  "metric": {"session_scale.admit": {"why": "tight", "quantile_rel": 1.0}}
                }
              }
            }"#,
        )
        .expect("manifest parses");
        assert_eq!(cfg.default.counter_rel, Some(0.25));
        assert_eq!(cfg.series.min_intervals, 3);
        assert_eq!(cfg.series.zero_final.len(), 2);
        assert_eq!(
            cfg.series.bounded,
            vec![(
                "admission.pending.peak".to_string(),
                "pending_cap".to_string()
            )]
        );
        assert_eq!(cfg.extra, vec!["ci_group_commit".to_string()]);
        // Resolution order: hard default -> [default] -> bench -> metric.
        let t = cfg.tol_for("session_scale", "session_scale.admit");
        assert_eq!(t.quantile_rel, Some(1.0));
        assert_eq!(t.counter_rel, Some(0.25));
        let t = cfg.tol_for("session_scale", "other");
        assert_eq!(t.quantile_rel, Some(7.0));
        let t = cfg.tol_for("table1_power", "other");
        assert_eq!(t.quantile_rel, Some(2.0));
        assert!(cfg.skipped("session_scale", "sqlengine.wal.flush"));
        assert!(!cfg.skipped("session_scale", "wal.flush.batch_size"));
        assert!(!cfg.skipped("table1_power", "sqlengine.wal.flush"));
    }

    #[test]
    fn manifest_rejects_typos_loudly() {
        for bad in [
            r#"{"default": {"counter_rell": 0.5}}"#,
            r#"{"defaults": {"counter_rel": 0.5}}"#,
            r#"{"bench": {"x": {"counter_rel": "high"}}}"#,
            r#"{"series": {"bounded": ["no-operator"]}}"#,
            r#"{"counter_rel": 0.5}"#,
            r#"{"bench": {"x": {"metric": {"rel": 1}}}}"#,
            r#"{"default": {"why": 1}}"#,
            "[default]\ncounter_rel = 0.5",
        ] {
            assert!(GateConfig::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn identical_snapshots_pass_clean() {
        let doc = parse(&snap("\"c\": 100", "\"g\": 0", &hist(10, 100, 180, 200)));
        let deltas = compare_bench("demo", &doc, &doc, &GateConfig::default());
        assert!(deltas.iter().all(|d| d.status == Status::Ok), "{deltas:?}");
        assert!(!deltas.is_empty());
    }

    #[test]
    fn counter_band_edges_are_inclusive() {
        let cfg = GateConfig::default(); // counter_rel 0.5
        let base = parse(&snap("\"c\": 100", "", ""));
        // 150 sits exactly on the band: passes.
        let on_edge = parse(&snap("\"c\": 150", "", ""));
        let d = compare_bench("demo", &base, &on_edge, &cfg);
        assert_eq!(statuses(&d)["counter c"], Status::Ok);
        // 151 is outside; so is halving beyond the band (both directions).
        let over = parse(&snap("\"c\": 151", "", ""));
        let d = compare_bench("demo", &base, &over, &cfg);
        assert_eq!(statuses(&d)["counter c"], Status::Regressed);
        let under = parse(&snap("\"c\": 40", "", ""));
        let d = compare_bench("demo", &base, &under, &cfg);
        assert_eq!(statuses(&d)["counter c"], Status::Regressed);
    }

    #[test]
    fn quantile_regressions_fail_upward_only() {
        let cfg = GateConfig::default(); // quantile_rel 3.0 => 4x passes
        let base = parse(&snap("", "", &hist(10, 100, 180, 200)));
        let fast = parse(&snap("", "", &hist(10, 10, 20, 30)));
        let d = compare_bench("demo", &base, &fast, &cfg);
        assert_eq!(
            statuses(&d)["p99 lat"],
            Status::Improved,
            "faster never fails"
        );
        let on_edge = parse(&snap("", "", &hist(10, 100, 180, 800)));
        let d = compare_bench("demo", &base, &on_edge, &cfg);
        assert_eq!(statuses(&d)["p99 lat"], Status::Ok);
        let slow = parse(&snap("", "", &hist(10, 100, 180, 801)));
        let d = compare_bench("demo", &base, &slow, &cfg);
        assert_eq!(statuses(&d)["p99 lat"], Status::Regressed);
        assert_eq!(statuses(&d)["p50 lat"], Status::Ok);
    }

    #[test]
    fn quantile_floor_suppresses_jitter() {
        let mut cfg = GateConfig::default();
        cfg.default.quantile_floor = Some(1000.0);
        let base = parse(&snap("", "", &hist(10, 50, 60, 70)));
        let noisy = parse(&snap("", "", &hist(10, 400, 500, 600)));
        let d = compare_bench("demo", &base, &noisy, &cfg);
        assert!(
            d.iter().all(|d| d.status != Status::Regressed),
            "sub-floor deltas must not regress: {d:?}"
        );
    }

    #[test]
    fn lost_metrics_fail_and_new_metrics_inform() {
        let cfg = GateConfig::default();
        let base = parse(&snap("\"old\": 5", "", ""));
        let cur = parse(&snap("\"fresh\": 5", "", ""));
        let s = statuses(&compare_bench("demo", &base, &cur, &cfg));
        assert_eq!(s["counter old"], Status::Missing);
        assert_eq!(s["counter fresh"], Status::New);
    }

    #[test]
    fn skip_patterns_exclude_noise() {
        let mut cfg = GateConfig::default();
        cfg.benches.entry("demo".into()).or_default().skip = vec!["noise.*".into()];
        let base = parse(&snap("\"noise.c\": 100", "", ""));
        let cur = parse(&snap("\"noise.c\": 100000", "", ""));
        let d = compare_bench("demo", &base, &cur, &cfg);
        assert_eq!(statuses(&d)["counter noise.c"], Status::Skipped);
        let report = GateReport {
            deltas: d,
            ..Default::default()
        };
        assert!(!report.failed());
    }

    // -- fs-level tests -----------------------------------------------------

    struct TmpDirs {
        root: PathBuf,
    }

    impl TmpDirs {
        fn new(tag: &str) -> TmpDirs {
            let root = std::env::temp_dir().join(format!(
                "benchgate-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(root.join("results")).expect("mk results");
            std::fs::create_dir_all(root.join("baselines")).expect("mk baselines");
            TmpDirs { root }
        }

        fn results(&self) -> PathBuf {
            self.root.join("results")
        }

        fn baselines(&self) -> PathBuf {
            self.root.join("baselines")
        }

        fn write(&self, rel: &str, content: &str) {
            std::fs::write(self.root.join(rel), content).expect("write fixture");
        }
    }

    impl Drop for TmpDirs {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn gate_passes_on_matching_dirs_and_fails_on_doctored_baseline() {
        let t = TmpDirs::new("doctored");
        let good = snap(
            "\"admission.admit\": 100",
            "\"sessions.active\": 0",
            &hist(50, 100, 180, 200),
        );
        t.write("results/session_scale.json", &good);
        t.write("baselines/session_scale.json", &good);
        let cfg = GateConfig::default();
        let report = run_gate(&t.results(), &t.baselines(), &cfg);
        assert!(
            !report.failed(),
            "clean HEAD must pass: {}",
            render_text(&report)
        );

        // Doctor the baseline the way a perf regression would look: the
        // blessed p99 was 4x better than what the current run measures.
        let doctored = snap(
            "\"admission.admit\": 100",
            "\"sessions.active\": 0",
            &hist(50, 20, 30, 40),
        );
        t.write("baselines/session_scale.json", &doctored);
        let report = run_gate(&t.results(), &t.baselines(), &cfg);
        assert!(report.failed(), "doctored baseline must fail the gate");
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.status == Status::Regressed && d.kind == "p99"),
            "failure must name the regressed quantile: {}",
            render_text(&report)
        );
        let json = render_json(&report);
        let doc = Json::parse(&json).expect("report json parses");
        assert_eq!(
            doc.get("failed").map(|f| f == &Json::Bool(true)),
            Some(true)
        );
    }

    #[test]
    fn bless_rewrites_baselines_from_results() {
        let t = TmpDirs::new("bless");
        let old = snap("\"c\": 10", "", &hist(5, 10, 20, 30));
        let new = snap("\"c\": 10000", "", &hist(5, 10, 20, 30));
        t.write("baselines/demo.json", &old);
        t.write("results/demo.json", &new);
        t.write("results/brand_new.json", &old);
        let cfg = GateConfig::default();
        assert!(run_gate(&t.results(), &t.baselines(), &cfg).failed());
        let blessed = bless(&t.results(), &t.baselines()).expect("bless");
        assert_eq!(blessed, vec!["brand_new".to_string(), "demo".to_string()]);
        assert_eq!(
            std::fs::read_to_string(t.baselines().join("demo.json")).expect("read"),
            new,
            "bless copies the current result verbatim"
        );
        let report = run_gate(&t.results(), &t.baselines(), &cfg);
        assert!(
            !report.failed(),
            "gate is clean after bless: {}",
            render_text(&report)
        );
    }

    #[test]
    fn malformed_and_missing_files_are_hard_errors() {
        let t = TmpDirs::new("malformed");
        t.write("baselines/demo.json", &snap("\"c\": 1", "", ""));
        // Missing current result.
        let report = run_gate(&t.results(), &t.baselines(), &GateConfig::default());
        assert!(report.failed());
        assert!(
            report.errors[0].contains("no current result"),
            "{:?}",
            report.errors
        );
        // Malformed current result.
        t.write("results/demo.json", "{\"obskit\": 1, truncated");
        let report = run_gate(&t.results(), &t.baselines(), &GateConfig::default());
        assert!(report.failed());
        assert!(
            report.errors[0].contains("not valid JSON"),
            "{:?}",
            report.errors
        );
        // Wrong schema tag.
        t.write("results/demo.json", "{\"not_obskit\": 2}");
        let report = run_gate(&t.results(), &t.baselines(), &GateConfig::default());
        assert!(report.failed());
        assert!(
            report.errors[0].contains("not an obskit v1 snapshot"),
            "{:?}",
            report.errors
        );
        // Bless refuses to adopt garbage.
        assert!(bless(&t.results(), &t.baselines()).is_err());
    }

    // -- series tests -------------------------------------------------------

    fn series_cfg() -> SeriesCfg {
        SeriesCfg {
            min_intervals: 3,
            zero_final: vec!["sessions.active".into()],
            monotone: vec!["admission.pending.peak".into()],
            bounded: vec![("admission.pending.peak".into(), "pending_cap".into())],
        }
    }

    const GOOD_SERIES: &str = concat!(
        "{\"obskit_series\": 1, \"meta\": {\"source\": \"t\", \"pending_cap\": \"8\"}}\n",
        "{\"seq\": 1, \"label\": \"a\", \"counters\": {\"c\": 3}, \"gauges\": \
         {\"sessions.active\": 2, \"admission.pending.peak\": 4}, \"histograms\": {}}\n",
        "{\"seq\": 2, \"label\": \"b\", \"counters\": {\"c\": 0}, \"gauges\": \
         {\"sessions.active\": 1, \"admission.pending.peak\": 8}, \"histograms\": \
         {\"h\": {\"count\": 2, \"p50\": 5, \"p95\": 5, \"p99\": 5}}}\n",
        "{\"seq\": 3, \"label\": \"c\", \"counters\": {\"c\": 1}, \"gauges\": \
         {\"sessions.active\": 0, \"admission.pending.peak\": 8}, \"histograms\": {}}\n",
    );

    #[test]
    fn valid_series_passes() {
        let errs = check_series_text(GOOD_SERIES, &series_cfg(), "t");
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn series_invariant_violations_are_caught() {
        let cases: &[(&str, &str)] = &[
            // Too few intervals.
            (
                "{\"obskit_series\": 1, \"meta\": {}}\n{\"seq\": 1, \"label\": \"a\", \
                 \"counters\": {}, \"gauges\": {}, \"histograms\": {}}\n",
                "at least 3",
            ),
            // Negative counter delta.
            (
                &GOOD_SERIES.replace("\"counters\": {\"c\": 0}", "\"counters\": {\"c\": -2}"),
                "negative",
            ),
            // Broken sequence numbering.
            (
                &GOOD_SERIES.replace("\"seq\": 2", "\"seq\": 7"),
                "interval sequence",
            ),
            // Bounded gauge above the header cap.
            (
                &GOOD_SERIES.replace(
                    "\"admission.pending.peak\": 8}, \"histograms\": {}}",
                    "\"admission.pending.peak\": 9}, \"histograms\": {}}",
                ),
                "exceeds meta.pending_cap",
            ),
            // Monotone gauge decreasing.
            (
                &GOOD_SERIES.replacen(
                    "\"admission.pending.peak\": 8",
                    "\"admission.pending.peak\": 3",
                    1,
                ),
                "decreased",
            ),
            // Gauge not drained by the final interval.
            (
                &GOOD_SERIES.replace("{\"sessions.active\": 0,", "{\"sessions.active\": 5,"),
                "drain to zero",
            ),
            // Malformed interval line.
            (
                &GOOD_SERIES.replace("{\"seq\": 3", "{\"seq\": oops 3"),
                "not valid JSON",
            ),
            // Missing header tag.
            ("{\"seq\": 1}\n", "obskit_series"),
        ];
        for (text, want) in cases {
            let errs = check_series_text(text, &series_cfg(), "t");
            assert!(
                errs.iter().any(|e| e.contains(want)),
                "expected a violation containing {want:?}, got {errs:?}"
            );
        }
    }

    #[test]
    fn bounded_rule_skips_series_without_the_cap() {
        // A chaos-soak series has no pending_cap in its header; the rule
        // must not fire.
        let text = GOOD_SERIES.replace(", \"pending_cap\": \"8\"", "");
        let errs = check_series_text(
            &text.replace(
                "\"admission.pending.peak\": 4",
                "\"admission.pending.peak\": 400",
            ),
            &SeriesCfg {
                monotone: vec![],
                ..series_cfg()
            },
            "t",
        );
        assert!(errs.is_empty(), "{errs:?}");
    }
}
