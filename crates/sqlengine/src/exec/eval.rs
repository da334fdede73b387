//! Expression binding and evaluation, including the three subquery
//! execution strategies (uncorrelated-cached, decorrelated-grouped,
//! memoized-naive) and aggregation accumulators.

#![allow(missing_docs)] // executor-internal IR: names mirror the AST

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use super::binding::{agg_kind, resolve_col, AggCall, AggKind, BExpr, BoundCol, FuncKind};
use super::select::{names_hold, read_names, relation_bindings, run_select_materialized};
use super::ExecCtx;
use crate::error::{Error, Result};
use crate::sql::ast::{BinOp, Expr, SelectItem, SelectStmt};
use crate::types::{date_year, sql_like, DataType, Row, Value};

// ---------------------------------------------------------------------------
// Subquery plans
// ---------------------------------------------------------------------------

/// What the subquery produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubKind {
    Exists,
    Scalar,
    InSet,
}

/// Scalar-subquery output under decorrelation.
#[derive(Debug)]
pub struct ScalarOut {
    /// Aggregates over the probed group (empty ⇒ `out` is per-row).
    pub aggs: Vec<AggCall>,
    pub out: BExpr,
}

/// Execution strategy, decided at bind time.
#[allow(clippy::large_enum_variant)] // one plan per subquery; size is fine
#[derive(Debug)]
pub enum SubStrategy {
    /// No outer references: run once, cache the result.
    Uncorrelated,
    /// Correlated only through `inner = outer` equality conjuncts:
    /// materialize the inner query once grouped by the inner key, probe
    /// per outer row.
    Decorrelated {
        inner_query: SelectStmt,
        inner_keys: Vec<BExpr>,
        /// Bound against the outer scopes (evaluated in the outer env).
        outer_keys: Vec<BExpr>,
        /// Bound against [inner, outer...]; evaluated with the candidate
        /// inner row as scope 0 and the outer env as parent.
        residual: Option<BExpr>,
        scalar: Option<ScalarOut>,
        inset_expr: Option<BExpr>,
    },
    /// Fallback: re-execute per distinct outer-reference tuple.
    Memoized { outer_refs: Vec<BExpr> },
}

/// Inner rows grouped by correlation key.
pub struct GroupedInner {
    pub cols: Vec<BoundCol>,
    pub map: HashMap<Vec<u8>, Vec<Row>>,
}

/// Mutable evaluation state for a subquery plan. Each result is built
/// once and shared: a cache hit hands out another reference to it.
#[derive(Default)]
pub struct SubState {
    cached: Option<Arc<SubResult>>,
    groups: Option<Arc<GroupedInner>>,
    memo: HashMap<Vec<u8>, Arc<SubResult>>,
}

#[derive(Debug)]
pub enum SubResult {
    Bool(bool),
    Scalar(Value),
    Set {
        keys: HashSet<Vec<u8>>,
        has_null: bool,
    },
}

/// A prepared subquery.
pub struct SubPlan {
    pub kind: SubKind,
    pub query: SelectStmt,
    pub strategy: SubStrategy,
    /// Scopes visible *outside* the subquery, for re-binding at execution.
    pub outer_scopes: Vec<Vec<BoundCol>>,
    pub state: Mutex<SubState>,
}

impl std::fmt::Debug for SubPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubPlan")
            .field("kind", &self.kind)
            .field("strategy", &self.strategy)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

/// Evaluation environment: one row per scope, innermost first via `parent`
/// chaining; aggregate phases add `(group keys, agg results)`.
pub struct Env<'a> {
    pub row: &'a [Value],
    pub agg: Option<(&'a [Value], &'a [Value])>,
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    pub fn base(row: &'a [Value]) -> Env<'a> {
        Env {
            row,
            agg: None,
            parent: None,
        }
    }

    pub fn child(row: &'a [Value], parent: Option<&'a Env<'a>>) -> Env<'a> {
        Env {
            row,
            agg: None,
            parent,
        }
    }

    fn at_depth(&self, d: usize) -> Result<&Env<'a>> {
        let mut cur = self;
        for _ in 0..d {
            cur = cur
                .parent
                .ok_or_else(|| Error::Internal("scope depth out of range".into()))?;
        }
        Ok(cur)
    }
}

/// Canonical key encoding for grouping / set membership: numeric values of
/// different storage types compare equal (Int 42 == Float 42.0 == that Date).
pub fn key_encode(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 9);
    key_encode_into(vals, &mut out);
    out
}

/// [`key_encode`] into `out`, cleared first, so a loop can reuse one
/// buffer.
pub fn key_encode_into(vals: &[Value], out: &mut Vec<u8>) {
    out.clear();
    for v in vals {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&(*i as f64).to_bits().to_be_bytes());
            }
            Value::Float(f) => {
                out.push(1);
                out.extend_from_slice(&f.to_bits().to_be_bytes());
            }
            Value::Date(d) => {
                out.push(1);
                out.extend_from_slice(&(*d as f64).to_bits().to_be_bytes());
            }
            Value::Str(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AST normalization (case-insensitive structural equality)
// ---------------------------------------------------------------------------

/// Lowercase identifiers so structurally-equal expressions compare equal.
pub fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::Column { table, name } => Expr::Column {
            table: table.as_ref().map(|t| t.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        },
        Expr::Func {
            name,
            args,
            distinct,
            star,
        } => Expr::Func {
            name: name.to_ascii_lowercase(),
            args: args.iter().map(normalize).collect(),
            distinct: *distinct,
            star: *star,
        },
        Expr::Neg(x) => Expr::Neg(Box::new(normalize(x))),
        Expr::Not(x) => Expr::Not(Box::new(normalize(x))),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(normalize(left)),
            right: Box::new(normalize(right)),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(normalize(expr)),
            pattern: Box::new(normalize(pattern)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize(expr)),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(normalize(expr)),
            low: Box::new(normalize(low)),
            high: Box::new(normalize(high)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(normalize(expr)),
            list: list.iter().map(normalize).collect(),
            negated: *negated,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (normalize(c), normalize(r)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(normalize(x))),
        },
        // Subquery-bearing expressions keep their query as-is (pointer-ish
        // equality is fine: they never participate in group matching).
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

/// Aggregate binding context for the aggregate output phase.
pub struct AggContext {
    /// Normalized group-by expressions.
    pub group_exprs: Vec<Expr>,
    pub key_types: Vec<DataType>,
    pub aggs: Vec<AggCall>,
}

/// Expression binder.
pub struct Binder<'b> {
    pub ctx: &'b ExecCtx,
    /// Innermost first.
    pub scopes: Vec<Vec<BoundCol>>,
    pub agg_ctx: Option<&'b AggContext>,
}

impl<'b> Binder<'b> {
    pub fn new(ctx: &'b ExecCtx, scopes: Vec<Vec<BoundCol>>) -> Self {
        Binder {
            ctx,
            scopes,
            agg_ctx: None,
        }
    }

    fn scope_refs(&self) -> Vec<&[BoundCol]> {
        self.scopes.iter().map(|s| s.as_slice()).collect()
    }

    pub fn bind(&self, e: &Expr) -> Result<BExpr> {
        if let Some(agg) = self.agg_ctx {
            let n = normalize(e);
            if let Some(i) = agg.group_exprs.iter().position(|g| *g == n) {
                return Ok(BExpr::GroupRef {
                    idx: i,
                    dtype: agg.key_types[i],
                });
            }
            if let Expr::Func { name, star, .. } = &n {
                if agg_kind(name, *star).is_some() {
                    if let Some(i) = agg.aggs.iter().position(|a| a.source == n) {
                        return Ok(BExpr::AggRef {
                            idx: i,
                            dtype: agg.aggs[i].result_type(),
                        });
                    }
                    return Err(Error::Internal("uncollected aggregate".into()));
                }
            }
        }
        match e {
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::Param(p) => self
                .ctx
                .params
                .get(&p.to_ascii_lowercase())
                .cloned()
                .map(BExpr::Literal)
                .ok_or_else(|| Error::Semantic(format!("unbound parameter @{p}"))),
            Expr::Column { table, name } => {
                let scopes = self.scope_refs();
                let (depth, idx, dtype) = resolve_col(&scopes, table.as_deref(), name)?;
                Ok(BExpr::Col { depth, idx, dtype })
            }
            Expr::Neg(x) => Ok(BExpr::Neg(Box::new(self.bind(x)?))),
            Expr::Not(x) => Ok(BExpr::Not(Box::new(self.bind(x)?))),
            Expr::Binary { op, left, right } => Ok(BExpr::Binary {
                op: *op,
                left: Box::new(self.bind(left)?),
                right: Box::new(self.bind(right)?),
            }),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(BExpr::Like {
                expr: Box::new(self.bind(expr)?),
                pattern: Box::new(self.bind(pattern)?),
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => Ok(BExpr::IsNull {
                expr: Box::new(self.bind(expr)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BExpr::Between {
                expr: Box::new(self.bind(expr)?),
                low: Box::new(self.bind(low)?),
                high: Box::new(self.bind(high)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BExpr::InList {
                expr: Box::new(self.bind(expr)?),
                list: list.iter().map(|x| self.bind(x)).collect::<Result<_>>()?,
                negated: *negated,
            }),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Ok(BExpr::InSub {
                expr: Box::new(self.bind(expr)?),
                plan: self.bind_subquery(query, SubKind::InSet)?,
                negated: *negated,
            }),
            Expr::Exists { query, negated } => Ok(BExpr::Exists {
                plan: self.bind_subquery(query, SubKind::Exists)?,
                negated: *negated,
            }),
            Expr::ScalarSubquery(query) => Ok(BExpr::Scalar {
                plan: self.bind_subquery(query, SubKind::Scalar)?,
            }),
            Expr::Case {
                branches,
                else_expr,
            } => {
                let bb: Vec<(BExpr, BExpr)> = branches
                    .iter()
                    .map(|(c, r)| Ok((self.bind(c)?, self.bind(r)?)))
                    .collect::<Result<_>>()?;
                let dtype = bb
                    .first()
                    .map(|(_, r)| r.dtype())
                    .unwrap_or(DataType::Float);
                Ok(BExpr::Case {
                    branches: bb,
                    else_expr: else_expr
                        .as_ref()
                        .map(|x| Ok(Box::new(self.bind(x)?)))
                        .transpose()?,
                    dtype,
                })
            }
            Expr::Func {
                name,
                args,
                distinct: _,
                star,
            } => {
                if agg_kind(name, *star).is_some() {
                    return Err(Error::Semantic(format!(
                        "aggregate {name} not allowed in this context"
                    )));
                }
                let func = FuncKind::from_name(name)
                    .ok_or_else(|| Error::Semantic(format!("unknown function {name}")))?;
                Ok(BExpr::Func {
                    func,
                    args: args.iter().map(|a| self.bind(a)).collect::<Result<_>>()?,
                })
            }
        }
    }

    /// Collect (deduplicated, normalized) aggregate calls appearing in `e`,
    /// binding their arguments against this binder's scopes.
    pub fn collect_aggs(&self, e: &Expr, out: &mut Vec<AggCall>) -> Result<()> {
        let n = normalize(e);
        let mut pending = Vec::new();
        n.walk(&mut |node| {
            if let Expr::Func {
                name,
                args,
                distinct,
                star,
            } = node
            {
                if let Some(kind) = agg_kind(name, *star) {
                    pending.push((kind, args.clone(), *distinct, node.clone()));
                }
            }
        });
        for (kind, args, distinct, source) in pending {
            if out.iter().any(|a| a.source == source) {
                continue;
            }
            let arg = match kind {
                AggKind::CountStar => None,
                _ => {
                    let a = args
                        .first()
                        .ok_or_else(|| Error::Semantic("aggregate requires an argument".into()))?;
                    Some(self.bind(a)?)
                }
            };
            out.push(AggCall {
                kind,
                arg,
                distinct,
                source,
            });
        }
        Ok(())
    }

    // -- subquery planning ---------------------------------------------------

    fn bind_subquery(&self, q: &SelectStmt, kind: SubKind) -> Result<Arc<SubPlan>> {
        let inner_scope = relation_bindings(self.ctx, &q.from)?;

        // Collect every column reference in the subquery (not descending
        // into nested subqueries) and classify inner vs outer.
        let mut cols: Vec<Expr> = Vec::new();
        let mut push_cols = |e: &Expr| {
            e.walk(&mut |n| {
                if matches!(n, Expr::Column { .. }) {
                    cols.push(n.clone());
                }
            });
        };
        if let Some(f) = &q.filter {
            push_cols(f);
        }
        for it in &q.items {
            if let SelectItem::Expr { expr, .. } = it {
                push_cols(expr);
            }
        }
        for g in &q.group_by {
            push_cols(g);
        }
        if let Some(h) = &q.having {
            push_cols(h);
        }
        for o in &q.order_by {
            push_cols(&o.expr);
        }

        let inner_ref: Vec<&[BoundCol]> = vec![&inner_scope];
        let mut has_outer = false;
        for c in &cols {
            let Expr::Column { table, name } = c else {
                continue;
            };
            if resolve_col(&inner_ref, table.as_deref(), name).is_err() {
                has_outer = true;
                break;
            }
        }

        let strategy = if !has_outer {
            SubStrategy::Uncorrelated
        } else {
            self.plan_correlated(q, kind, &inner_scope)?
        };

        Ok(Arc::new(SubPlan {
            kind,
            query: q.clone(),
            strategy,
            outer_scopes: self.scopes.clone(),
            state: Mutex::new(SubState::default()),
        }))
    }

    fn plan_correlated(
        &self,
        q: &SelectStmt,
        kind: SubKind,
        inner_scope: &[BoundCol],
    ) -> Result<SubStrategy> {
        // The inner columns the subquery reads. Every inner column that
        // has a name the subquery reads stays, so each reference binds
        // against them as it would against the whole scope.
        let mut names = Vec::new();
        read_names(q, &mut names);
        let read: Vec<BoundCol> = inner_scope
            .iter()
            .filter(|c| names_hold(&names, &c.name))
            .cloned()
            .collect();
        // A decorrelated inner query selects them by qualified name, which
        // cannot tell apart two columns of one qualifier and name; such a
        // scope stays whole under `*`.
        let nameable = read.iter().enumerate().all(|(i, c)| {
            !read[..i].iter().any(|d| {
                d.name.eq_ignore_ascii_case(&c.name)
                    && d.qual.as_deref().map(str::to_ascii_lowercase)
                        == c.qual.as_deref().map(str::to_ascii_lowercase)
            })
        });
        let (narrowed, inner_items) = if nameable {
            let items = read
                .iter()
                .map(|c| SelectItem::Expr {
                    expr: Expr::Column {
                        table: c.qual.clone(),
                        name: c.name.clone(),
                    },
                    alias: None,
                })
                .collect();
            (read, items)
        } else {
            (inner_scope.to_vec(), vec![SelectItem::Wildcard])
        };
        let inner_scope = narrowed.as_slice();

        let decorrelatable = q.group_by.is_empty()
            && q.having.is_none()
            && q.top.is_none()
            && q.order_by.is_empty()
            && q.filter.is_some()
            && !(q.distinct && kind == SubKind::Scalar);

        let mut extended = vec![inner_scope.to_vec()];
        extended.extend(self.scopes.iter().cloned());
        let ext_binder = Binder::new(self.ctx, extended);
        let outer_binder = Binder::new(self.ctx, self.scopes.clone());
        let inner_binder = Binder::new(self.ctx, vec![inner_scope.to_vec()]);

        // Helper: classify a conjunct's column references.
        let inner_ref: Vec<&[BoundCol]> = vec![inner_scope];
        let side = |e: &Expr| -> Result<(bool, bool, bool)> {
            // (has_inner, has_outer, has_subquery)
            let mut has_inner = false;
            let mut has_outer = false;
            let mut has_sub = false;
            let mut err = None;
            e.walk(&mut |n| match n {
                Expr::Column { table, name } => {
                    if resolve_col(&inner_ref, table.as_deref(), name).is_ok() {
                        has_inner = true;
                    } else {
                        // Must resolve somewhere outer; report later if not.
                        let scopes = ext_binder.scope_refs();
                        if resolve_col(&scopes, table.as_deref(), name).is_ok() {
                            has_outer = true;
                        } else if err.is_none() {
                            err = Some(Error::Semantic(format!(
                                "unknown column '{name}' in subquery"
                            )));
                        }
                    }
                }
                Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => {
                    has_sub = true;
                }
                _ => {}
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok((has_inner, has_outer, has_sub))
        };

        if let Some(filter) = q.filter.as_ref().filter(|_| decorrelatable) {
            let conjuncts = split_conjuncts(filter);
            let mut inner_conj: Vec<Expr> = Vec::new();
            let mut pairs: Vec<(Expr, Expr)> = Vec::new(); // (inner, outer)
            let mut residual: Vec<Expr> = Vec::new();
            let mut fallback = false;
            for c in &conjuncts {
                let (_, has_outer, has_sub) = side(c)?;
                if !has_outer {
                    inner_conj.push((*c).clone());
                    continue;
                }
                if has_sub {
                    fallback = true;
                    break;
                }
                if let Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } = c
                {
                    let (li, lo, _) = side(left)?;
                    let (ri, ro, _) = side(right)?;
                    if li && !lo && ro && !ri {
                        pairs.push(((**left).clone(), (**right).clone()));
                        continue;
                    }
                    if ri && !ro && lo && !li {
                        pairs.push(((**right).clone(), (**left).clone()));
                        continue;
                    }
                }
                residual.push((*c).clone());
            }
            if !fallback && !pairs.is_empty() {
                let inner_keys: Vec<BExpr> = pairs
                    .iter()
                    .map(|(i, _)| inner_binder.bind(i))
                    .collect::<Result<_>>()?;
                let outer_keys: Vec<BExpr> = pairs
                    .iter()
                    .map(|(_, o)| outer_binder.bind(o))
                    .collect::<Result<_>>()?;
                let residual_b = match residual.len() {
                    0 => None,
                    _ => Some(ext_binder.bind(&conjoin(residual))?),
                };
                let inner_query = SelectStmt {
                    distinct: false,
                    top: None,
                    items: inner_items,
                    from: q.from.clone(),
                    filter: if inner_conj.is_empty() {
                        None
                    } else {
                        Some(conjoin(inner_conj))
                    },
                    group_by: vec![],
                    having: None,
                    order_by: vec![],
                };
                // Output machinery per kind.
                let (scalar, inset_expr) = match kind {
                    SubKind::Exists => (None, None),
                    SubKind::Scalar => {
                        let item = match q.items.as_slice() {
                            [SelectItem::Expr { expr, .. }] => expr,
                            _ => {
                                return Err(Error::Semantic(
                                    "scalar subquery must select one expression".into(),
                                ))
                            }
                        };
                        let mut aggs = Vec::new();
                        inner_binder.collect_aggs(item, &mut aggs)?;
                        let out = if aggs.is_empty() {
                            ext_binder.bind(item)?
                        } else {
                            let agg_ctx = AggContext {
                                group_exprs: vec![],
                                key_types: vec![],
                                aggs: aggs.clone(),
                            };
                            let b = Binder {
                                ctx: self.ctx,
                                scopes: ext_binder.scopes.clone(),
                                agg_ctx: Some(&agg_ctx),
                            };
                            b.bind(item)?
                        };
                        (Some(ScalarOut { aggs, out }), None)
                    }
                    SubKind::InSet => {
                        let item = match q.items.as_slice() {
                            [SelectItem::Expr { expr, .. }] => expr,
                            _ => {
                                return Err(Error::Semantic(
                                    "IN subquery must select one expression".into(),
                                ))
                            }
                        };
                        (None, Some(ext_binder.bind(item)?))
                    }
                };
                return Ok(SubStrategy::Decorrelated {
                    inner_query,
                    inner_keys,
                    outer_keys,
                    residual: residual_b,
                    scalar,
                    inset_expr,
                });
            }
        }

        // Memoized fallback: find the distinct outer column refs.
        let mut outer_cols: Vec<Expr> = Vec::new();
        let mut record = |e: &Expr| -> Result<()> {
            let mut err = None;
            e.walk(&mut |n| {
                if let Expr::Column { table, name } = n {
                    if resolve_col(&[inner_scope], table.as_deref(), name).is_err() {
                        let scopes = self.scopes.iter().map(|s| s.as_slice()).collect::<Vec<_>>();
                        if resolve_col(&scopes, table.as_deref(), name).is_ok() {
                            let norm = normalize(n);
                            if !outer_cols.contains(&norm) {
                                outer_cols.push(norm);
                            }
                        } else if err.is_none() {
                            err = Some(Error::Semantic(format!(
                                "unknown column '{name}' in subquery"
                            )));
                        }
                    }
                }
            });
            err.map_or(Ok(()), Err)
        };
        if let Some(f) = &q.filter {
            record(f)?;
        }
        for it in &q.items {
            if let SelectItem::Expr { expr, .. } = it {
                record(expr)?;
            }
        }
        for g in &q.group_by {
            record(g)?;
        }
        if let Some(h) = &q.having {
            record(h)?;
        }
        let outer_refs: Vec<BExpr> = outer_cols
            .iter()
            .map(|c| outer_binder.bind(c))
            .collect::<Result<_>>()?;
        Ok(SubStrategy::Memoized { outer_refs })
    }
}

/// Split an expression into AND-ed conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e);
        }
    }
    rec(e, &mut out);
    out
}

/// AND together a list of expressions.
pub fn conjoin(mut list: Vec<Expr>) -> Expr {
    // The empty conjunction is vacuously true.
    let mut acc = match list.pop() {
        Some(e) => e,
        None => Expr::Literal(Value::Int(1)),
    };
    while let Some(e) = list.pop() {
        acc = Expr::Binary {
            op: BinOp::And,
            left: Box::new(e),
            right: Box::new(acc),
        };
    }
    acc
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// SQL truthiness: NULL ⇒ unknown.
pub fn truthy(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Float(f) => Some(*f != 0.0),
        Value::Str(s) => Some(!s.is_empty()),
        Value::Date(_) => Some(true),
    }
}

fn bool_val(b: Option<bool>) -> Value {
    match b {
        Some(true) => Value::Int(1),
        Some(false) => Value::Int(0),
        None => Value::Null,
    }
}

/// Evaluate a bound expression.
pub fn eval(ctx: &ExecCtx, env: &Env<'_>, e: &BExpr) -> Result<Value> {
    match e {
        BExpr::Literal(v) => Ok(v.clone()),
        BExpr::Col { depth, idx, .. } => {
            let scope = env.at_depth(*depth)?;
            scope
                .row
                .get(*idx)
                .cloned()
                .ok_or_else(|| Error::Internal(format!("row too short for col {idx}")))
        }
        BExpr::AggRef { idx, .. } => {
            let (_, aggs) = env
                .agg
                .ok_or_else(|| Error::Internal("AggRef outside aggregate phase".into()))?;
            Ok(aggs[*idx].clone())
        }
        BExpr::GroupRef { idx, .. } => {
            let (keys, _) = env
                .agg
                .ok_or_else(|| Error::Internal("GroupRef outside aggregate phase".into()))?;
            Ok(keys[*idx].clone())
        }
        BExpr::Neg(x) => match eval(ctx, env, x)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(Error::Semantic(format!("cannot negate {v}"))),
        },
        BExpr::Not(x) => {
            let v = eval(ctx, env, x)?;
            Ok(bool_val(truthy(&v).map(|b| !b)))
        }
        BExpr::Binary { op, left, right } => eval_binary(ctx, env, *op, left, right),
        BExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(ctx, env, expr)?;
            let p = eval(ctx, env, pattern)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let m = sql_like(&s, &pat);
                    Ok(bool_val(Some(m != *negated)))
                }
                _ => Err(Error::Semantic("LIKE requires strings".into())),
            }
        }
        BExpr::IsNull { expr, negated } => {
            let v = eval(ctx, env, expr)?;
            Ok(bool_val(Some(v.is_null() != *negated)))
        }
        BExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(ctx, env, expr)?;
            let lo = eval(ctx, env, low)?;
            let hi = eval(ctx, env, high)?;
            let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
            let b = and3(ge, le);
            Ok(bool_val(if *negated { b.map(|x| !x) } else { b }))
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(ctx, env, expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(ctx, env, item)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    return Ok(bool_val(Some(!*negated)));
                }
            }
            if saw_null {
                return Ok(Value::Null);
            }
            Ok(bool_val(Some(*negated)))
        }
        BExpr::InSub {
            expr,
            plan,
            negated,
        } => {
            let v = eval(ctx, env, expr)?;
            let r = eval_subquery(ctx, env, plan)?;
            let SubResult::Set { keys, has_null } = &*r else {
                return Err(Error::Internal("IN subquery produced non-set".into()));
            };
            // An empty set holds nothing to compare with, not even a NULL.
            if keys.is_empty() && !has_null {
                return Ok(bool_val(Some(*negated)));
            }
            if v.is_null() {
                return Ok(Value::Null);
            }
            let k = key_encode(std::slice::from_ref(&v));
            let b = if keys.contains(&k) {
                Some(true)
            } else if *has_null {
                None
            } else {
                Some(false)
            };
            Ok(bool_val(if *negated { b.map(|x| !x) } else { b }))
        }
        BExpr::Exists { plan, negated } => {
            let r = eval_subquery(ctx, env, plan)?;
            let SubResult::Bool(b) = *r else {
                return Err(Error::Internal("EXISTS produced non-bool".into()));
            };
            Ok(bool_val(Some(b != *negated)))
        }
        BExpr::Scalar { plan } => {
            let r = eval_subquery(ctx, env, plan)?;
            let SubResult::Scalar(v) = &*r else {
                return Err(Error::Internal(
                    "scalar subquery produced non-scalar".into(),
                ));
            };
            Ok(v.clone())
        }
        BExpr::Case {
            branches,
            else_expr,
            ..
        } => {
            for (c, r) in branches {
                if truthy(&eval(ctx, env, c)?) == Some(true) {
                    return eval(ctx, env, r);
                }
            }
            match else_expr {
                Some(x) => eval(ctx, env, x),
                None => Ok(Value::Null),
            }
        }
        BExpr::Func { func, args } => eval_func(ctx, env, *func, args),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn eval_binary(
    ctx: &ExecCtx,
    env: &Env<'_>,
    op: BinOp,
    left: &BExpr,
    right: &BExpr,
) -> Result<Value> {
    match op {
        BinOp::And => {
            let l = truthy(&eval(ctx, env, left)?);
            if l == Some(false) {
                return Ok(bool_val(Some(false)));
            }
            let r = truthy(&eval(ctx, env, right)?);
            Ok(bool_val(and3(l, r)))
        }
        BinOp::Or => {
            let l = truthy(&eval(ctx, env, left)?);
            if l == Some(true) {
                return Ok(bool_val(Some(true)));
            }
            let r = truthy(&eval(ctx, env, right)?);
            Ok(bool_val(match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }))
        }
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let l = eval(ctx, env, left)?;
            let r = eval(ctx, env, right)?;
            let cmp = l.sql_cmp(&r);
            let b = cmp.map(|o| match op {
                BinOp::Eq => o == std::cmp::Ordering::Equal,
                BinOp::Neq => o != std::cmp::Ordering::Equal,
                BinOp::Lt => o == std::cmp::Ordering::Less,
                BinOp::Le => o != std::cmp::Ordering::Greater,
                BinOp::Gt => o == std::cmp::Ordering::Greater,
                // Ge; the enclosing arm admits only the six comparisons.
                _ => o != std::cmp::Ordering::Less,
            });
            Ok(bool_val(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let l = eval(ctx, env, left)?;
            let r = eval(ctx, env, right)?;
            arith(op, l, r)
        }
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    // Date ± Int keeps date-ness.
    if let (Date(d), Int(i)) = (&l, &r) {
        return Ok(match op {
            BinOp::Add => Date(d + *i as i32),
            BinOp::Sub => Date(d - *i as i32),
            _ => return num_arith(op, *d as f64, *i as f64, false),
        });
    }
    let both_int = matches!((&l, &r), (Int(_), Int(_)));
    let (a, b) = (
        l.as_f64()
            .ok_or_else(|| Error::Semantic(format!("non-numeric operand {l}")))?,
        r.as_f64()
            .ok_or_else(|| Error::Semantic(format!("non-numeric operand {r}")))?,
    );
    num_arith(op, a, b, both_int)
}

fn num_arith(op: BinOp, a: f64, b: f64, both_int: bool) -> Result<Value> {
    let f = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        // Mod, plus any non-arithmetic operator the callers never pass.
        _ => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
    };
    if both_int && op != BinOp::Div {
        Ok(Value::Int(f as i64))
    } else {
        Ok(Value::Float(f))
    }
}

fn eval_func(ctx: &ExecCtx, env: &Env<'_>, func: FuncKind, args: &[BExpr]) -> Result<Value> {
    let vals: Vec<Value> = args
        .iter()
        .map(|a| eval(ctx, env, a))
        .collect::<Result<_>>()?;
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match func {
        FuncKind::Year => match &vals[0] {
            Value::Date(d) => Ok(Value::Int(date_year(*d))),
            Value::Str(s) => Ok(Value::Int(date_year(crate::types::parse_date(s)?))),
            v => Err(Error::Semantic(format!("YEAR of non-date {v}"))),
        },
        FuncKind::Substring => {
            let s = vals[0]
                .as_str()
                .ok_or_else(|| Error::Semantic("SUBSTRING of non-string".into()))?;
            let start = vals
                .get(1)
                .and_then(|v| v.as_i64())
                .ok_or_else(|| Error::Semantic("SUBSTRING start".into()))?
                .max(1) as usize;
            let len = vals.get(2).and_then(|v| v.as_i64()).unwrap_or(i64::MAX) as usize;
            let out: String = s.chars().skip(start - 1).take(len).collect();
            Ok(Value::Str(out))
        }
        FuncKind::Upper => Ok(Value::Str(
            vals[0]
                .as_str()
                .ok_or_else(|| Error::Semantic("UPPER of non-string".into()))?
                .to_uppercase(),
        )),
        FuncKind::Lower => Ok(Value::Str(
            vals[0]
                .as_str()
                .ok_or_else(|| Error::Semantic("LOWER of non-string".into()))?
                .to_lowercase(),
        )),
        FuncKind::Abs => match &vals[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            v => Err(Error::Semantic(format!("ABS of non-numeric {v}"))),
        },
        FuncKind::Round => {
            let x = vals[0]
                .as_f64()
                .ok_or_else(|| Error::Semantic("ROUND of non-numeric".into()))?;
            let digits = vals.get(1).and_then(|v| v.as_i64()).unwrap_or(0);
            let m = 10f64.powi(digits as i32);
            Ok(Value::Float((x * m).round() / m))
        }
    }
}

// ---------------------------------------------------------------------------
// Subquery evaluation
// ---------------------------------------------------------------------------

fn result_from_rows(kind: SubKind, rows: &[Row]) -> SubResult {
    match kind {
        SubKind::Exists => SubResult::Bool(!rows.is_empty()),
        SubKind::Scalar => SubResult::Scalar(
            rows.first()
                .and_then(|r| r.first())
                .cloned()
                .unwrap_or(Value::Null),
        ),
        SubKind::InSet => {
            let mut keys = HashSet::with_capacity(rows.len());
            let mut has_null = false;
            for r in rows {
                match r.first() {
                    Some(Value::Null) | None => has_null = true,
                    Some(v) => {
                        keys.insert(key_encode(std::slice::from_ref(v)));
                    }
                }
            }
            SubResult::Set { keys, has_null }
        }
    }
}

fn eval_subquery(ctx: &ExecCtx, env: &Env<'_>, plan: &SubPlan) -> Result<Arc<SubResult>> {
    match &plan.strategy {
        SubStrategy::Uncorrelated => {
            if let Some(r) = &plan.state.lock().cached {
                return Ok(Arc::clone(r));
            }
            let rel = run_select_materialized(ctx, &plan.query, &[], None)?;
            let r = Arc::new(result_from_rows(plan.kind, &rel.rows));
            plan.state.lock().cached = Some(Arc::clone(&r));
            Ok(r)
        }
        SubStrategy::Memoized { outer_refs } => {
            let key_vals: Vec<Value> = outer_refs
                .iter()
                .map(|e| eval(ctx, env, e))
                .collect::<Result<_>>()?;
            let key = key_encode(&key_vals);
            if let Some(r) = plan.state.lock().memo.get(&key) {
                return Ok(Arc::clone(r));
            }
            let rel = run_select_materialized(ctx, &plan.query, &plan.outer_scopes, Some(env))?;
            let r = Arc::new(result_from_rows(plan.kind, &rel.rows));
            plan.state.lock().memo.insert(key, Arc::clone(&r));
            Ok(r)
        }
        SubStrategy::Decorrelated {
            inner_query,
            inner_keys,
            outer_keys,
            residual,
            scalar,
            inset_expr,
        } => {
            // Build the grouped inner materialization once.
            let groups = {
                let st = plan.state.lock();
                st.groups.clone()
            };
            let groups = match groups {
                Some(g) => g,
                None => {
                    let rel = run_select_materialized(ctx, inner_query, &[], None)?;
                    let mut map: HashMap<Vec<u8>, Vec<Row>> = HashMap::new();
                    for row in rel.rows {
                        let renv = Env::base(&row);
                        let kv: Vec<Value> = inner_keys
                            .iter()
                            .map(|k| eval(ctx, &renv, k))
                            .collect::<Result<_>>()?;
                        // `inner = outer` is never true of a NULL key.
                        if kv.iter().any(Value::is_null) {
                            continue;
                        }
                        map.entry(key_encode(&kv)).or_default().push(row);
                    }
                    let g = Arc::new(GroupedInner {
                        cols: rel.cols,
                        map,
                    });
                    plan.state.lock().groups = Some(Arc::clone(&g));
                    g
                }
            };
            // Probe.
            let probe_vals: Vec<Value> = outer_keys
                .iter()
                .map(|e| eval(ctx, env, e))
                .collect::<Result<_>>()?;
            let probe = key_encode(&probe_vals);
            // Result cache valid only when there is no residual referencing
            // outer values beyond the key.
            let cacheable = residual.is_none();
            if cacheable {
                if let Some(r) = plan.state.lock().memo.get(&probe) {
                    return Ok(Arc::clone(r));
                }
            }
            let empty: Vec<Row> = Vec::new();
            let candidates = if probe_vals.iter().any(Value::is_null) {
                &empty
            } else {
                groups.map.get(&probe).unwrap_or(&empty)
            };
            // Apply residual with (inner row, outer env).
            let passing: Vec<&Row> = match residual {
                None => candidates.iter().collect(),
                Some(res) => {
                    let mut out = Vec::new();
                    for row in candidates {
                        let renv = Env::child(row, Some(env));
                        if truthy(&eval(ctx, &renv, res)?) == Some(true) {
                            out.push(row);
                        }
                    }
                    out
                }
            };
            let r = match plan.kind {
                SubKind::Exists => SubResult::Bool(!passing.is_empty()),
                SubKind::Scalar => {
                    let so = scalar
                        .as_ref()
                        .ok_or_else(|| Error::Internal("missing scalar plan".into()))?;
                    if so.aggs.is_empty() {
                        let v = match passing.first() {
                            Some(row) => {
                                let renv = Env::child(row, Some(env));
                                eval(ctx, &renv, &so.out)?
                            }
                            None => Value::Null,
                        };
                        SubResult::Scalar(v)
                    } else {
                        let mut accs: Vec<Accumulator> =
                            so.aggs.iter().map(Accumulator::new).collect();
                        for row in &passing {
                            let renv = Env::child(row, Some(env));
                            for (acc, call) in accs.iter_mut().zip(&so.aggs) {
                                let v = match &call.arg {
                                    Some(a) => eval(ctx, &renv, a)?,
                                    None => Value::Int(1),
                                };
                                acc.add(v);
                            }
                        }
                        let agg_vals: Vec<Value> =
                            accs.into_iter().map(Accumulator::finish).collect();
                        let rep: Row = Vec::new();
                        let out_env = Env {
                            row: &rep,
                            agg: Some((&[], &agg_vals)),
                            parent: Some(env),
                        };
                        SubResult::Scalar(eval(ctx, &out_env, &so.out)?)
                    }
                }
                SubKind::InSet => {
                    let ie = inset_expr
                        .as_ref()
                        .ok_or_else(|| Error::Internal("missing IN plan".into()))?;
                    let mut keys = HashSet::new();
                    let mut has_null = false;
                    for row in &passing {
                        let renv = Env::child(row, Some(env));
                        let v = eval(ctx, &renv, ie)?;
                        if v.is_null() {
                            has_null = true;
                        } else {
                            keys.insert(key_encode(std::slice::from_ref(&v)));
                        }
                    }
                    SubResult::Set { keys, has_null }
                }
            };
            let r = Arc::new(r);
            if cacheable {
                plan.state.lock().memo.insert(probe, Arc::clone(&r));
            }
            Ok(r)
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation accumulators
// ---------------------------------------------------------------------------

/// Streaming accumulator for one aggregate call.
pub struct Accumulator {
    kind: AggKind,
    distinct: Option<HashSet<Vec<u8>>>,
    count: i64,
    sum: f64,
    int_sum: i64,
    ints_only: bool,
    best: Option<Value>,
}

impl Accumulator {
    pub fn new(call: &AggCall) -> Accumulator {
        Accumulator {
            kind: call.kind,
            distinct: if call.distinct {
                Some(HashSet::new())
            } else {
                None
            },
            count: 0,
            sum: 0.0,
            int_sum: 0,
            ints_only: true,
            best: None,
        }
    }

    pub fn add(&mut self, v: Value) {
        if self.kind != AggKind::CountStar && v.is_null() {
            return;
        }
        if let Some(seen) = &mut self.distinct {
            let k = key_encode(std::slice::from_ref(&v));
            if !seen.insert(k) {
                return;
            }
        }
        self.count += 1;
        match self.kind {
            AggKind::Sum | AggKind::Avg => {
                match &v {
                    Value::Int(i) => {
                        self.int_sum += i;
                        self.sum += *i as f64;
                    }
                    other => {
                        self.ints_only = false;
                        self.sum += other.as_f64().unwrap_or(0.0);
                    }
                };
            }
            AggKind::Min => {
                let better = match &self.best {
                    None => true,
                    Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                };
                if better {
                    self.best = Some(v);
                }
            }
            AggKind::Max => {
                let better = match &self.best {
                    None => true,
                    Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                };
                if better {
                    self.best = Some(v);
                }
            }
            AggKind::Count | AggKind::CountStar => {}
        }
    }

    pub fn finish(self) -> Value {
        match self.kind {
            AggKind::Count | AggKind::CountStar => Value::Int(self.count),
            AggKind::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.ints_only {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(kind: AggKind, distinct: bool) -> Accumulator {
        Accumulator::new(&AggCall {
            kind,
            arg: None,
            distinct,
            source: Expr::Literal(Value::Null),
        })
    }

    #[test]
    fn sum_int_stays_int() {
        let mut a = acc(AggKind::Sum, false);
        for i in 1..=4 {
            a.add(Value::Int(i));
        }
        assert_eq!(a.finish(), Value::Int(10));
    }

    #[test]
    fn sum_mixed_floats() {
        let mut a = acc(AggKind::Sum, false);
        a.add(Value::Int(1));
        a.add(Value::Float(0.5));
        assert_eq!(a.finish(), Value::Float(1.5));
    }

    #[test]
    fn empty_aggregates() {
        assert_eq!(acc(AggKind::Sum, false).finish(), Value::Null);
        assert_eq!(acc(AggKind::Avg, false).finish(), Value::Null);
        assert_eq!(acc(AggKind::Min, false).finish(), Value::Null);
        assert_eq!(acc(AggKind::Count, false).finish(), Value::Int(0));
        assert_eq!(acc(AggKind::CountStar, false).finish(), Value::Int(0));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let mut c = acc(AggKind::Count, false);
        c.add(Value::Null);
        c.add(Value::Int(1));
        assert_eq!(c.finish(), Value::Int(1));
        let mut cs = acc(AggKind::CountStar, false);
        cs.add(Value::Null);
        cs.add(Value::Int(1));
        assert_eq!(cs.finish(), Value::Int(2));
    }

    #[test]
    fn distinct_count() {
        let mut a = acc(AggKind::Count, true);
        for v in [1, 2, 2, 3, 3, 3] {
            a.add(Value::Int(v));
        }
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn min_max() {
        let mut mn = acc(AggKind::Min, false);
        let mut mx = acc(AggKind::Max, false);
        for v in [5, 1, 9, 3] {
            mn.add(Value::Int(v));
            mx.add(Value::Int(v));
        }
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(9));
    }

    #[test]
    fn key_encode_numeric_crosses_types() {
        assert_eq!(
            key_encode(&[Value::Int(42)]),
            key_encode(&[Value::Float(42.0)])
        );
        assert_ne!(key_encode(&[Value::Int(1)]), key_encode(&[Value::Null]));
        assert_ne!(
            key_encode(&[Value::Str("1".into())]),
            key_encode(&[Value::Int(1)])
        );
    }

    #[test]
    fn split_and_conjoin() {
        let e = crate::sql::parser::parse_one("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3")
            .unwrap();
        let crate::sql::ast::Stmt::Select(q) = e else {
            panic!()
        };
        let cs = split_conjuncts(q.filter.as_ref().unwrap());
        assert_eq!(cs.len(), 3);
        let rejoined = conjoin(cs.into_iter().cloned().collect());
        assert_eq!(split_conjuncts(&rejoined).len(), 3);
    }

    /// An execution context whose session holds the temp table
    /// `#u (b INT, c INT)`. Reading a temp table moves none of the
    /// process-global `sqlengine.access.*` counters that `engine::tests`
    /// assert on.
    fn subquery_ctx() -> ExecCtx {
        use crate::engine::{Durable, Engine};
        use crate::storage::disk::DiskModel;
        use crate::wal::recovery::RecoveryConfig;

        let d = Durable::new(DiskModel::default());
        let e = Engine::recover(&d, RecoveryConfig::default()).unwrap();
        let storage = Arc::clone(e.storage());
        let ctx = ExecCtx {
            txn: Arc::new(storage.begin()),
            storage,
            temps: Arc::default(),
            params: Arc::default(),
            depth: 0,
            effects: Arc::default(),
        };
        for sql in [
            "CREATE TABLE #u (b INT, c INT)",
            "INSERT INTO #u VALUES (1, 10), (2, 20), (2, 21), (3, 30)",
        ] {
            let stmt = crate::sql::parser::parse_one(sql).unwrap();
            crate::exec::execute_stmt(&ctx, &stmt).unwrap();
        }
        ctx
    }

    /// The plan of the subquery in `SELECT 1 FROM t WHERE <pred>`, with
    /// `t.a` the outer row.
    fn subquery_plan(ctx: &ExecCtx, pred: &str) -> Arc<SubPlan> {
        use crate::sql::ast::Stmt;

        let binder = Binder::new(
            ctx,
            vec![vec![BoundCol::new(Some("t".into()), "a", DataType::Int)]],
        );
        let sql = format!("SELECT 1 FROM t WHERE {pred}");
        let Stmt::Select(q) = crate::sql::parser::parse_one(&sql).unwrap() else {
            panic!("{sql}")
        };
        match binder.bind(q.filter.as_ref().unwrap()).unwrap() {
            BExpr::InSub { plan, .. } | BExpr::Exists { plan, .. } => plan,
            other => panic!("{pred}: {other:?}"),
        }
    }

    /// A cached subquery result is shared: a second evaluation of an
    /// uncorrelated plan, or a second probe of one decorrelated or
    /// memoized key, hands back the result the first one built.
    #[test]
    fn cached_subquery_results_are_shared() {
        let ctx = subquery_ctx();
        let shared = |plan: &SubPlan, a: i64| {
            let row = [Value::Int(a)];
            let env = Env::base(&row);
            let first = eval_subquery(&ctx, &env, plan).unwrap();
            let again = eval_subquery(&ctx, &env, plan).unwrap();
            Arc::ptr_eq(&first, &again)
        };

        let uncorrelated = subquery_plan(&ctx, "a IN (SELECT b FROM #u)");
        assert!(matches!(uncorrelated.strategy, SubStrategy::Uncorrelated));
        assert!(shared(&uncorrelated, 2));
        let decorrelated = subquery_plan(&ctx, "EXISTS (SELECT 1 FROM #u u WHERE u.b = t.a)");
        assert!(matches!(
            decorrelated.strategy,
            SubStrategy::Decorrelated { residual: None, .. }
        ));
        assert!(shared(&decorrelated, 2));
        let memoized = subquery_plan(&ctx, "EXISTS (SELECT 1 FROM #u u WHERE u.b > t.a)");
        assert!(matches!(memoized.strategy, SubStrategy::Memoized { .. }));
        assert!(shared(&memoized, 2));
        ctx.storage.commit(&ctx.txn).unwrap();
    }

    /// A decorrelated inner query selects exactly the inner columns the
    /// subquery names, and its plan still answers from them.
    #[test]
    fn decorrelated_inner_query_selects_only_named_columns() {
        let ctx = subquery_ctx();
        let plan = subquery_plan(&ctx, "EXISTS (SELECT 1 FROM #u u WHERE u.b = t.a)");
        let SubStrategy::Decorrelated { inner_query, .. } = &plan.strategy else {
            panic!("not decorrelated: {:?}", plan.strategy)
        };
        let u_b = SelectItem::Expr {
            expr: Expr::Column {
                table: Some("u".into()),
                name: "b".into(),
            },
            alias: None,
        };
        assert_eq!(inner_query.items, [u_b]);
        for (a, exists) in [(2, true), (5, false)] {
            let row = [Value::Int(a)];
            let r = eval_subquery(&ctx, &Env::base(&row), &plan).unwrap();
            assert!(matches!(*r, SubResult::Bool(b) if b == exists), "a = {a}");
        }
        ctx.storage.commit(&ctx.txn).unwrap();
    }

    #[test]
    fn normalize_case_insensitive_equality() {
        let a = normalize(&Expr::Column {
            table: Some("T".into()),
            name: "Col".into(),
        });
        let b = normalize(&Expr::Column {
            table: Some("t".into()),
            name: "col".into(),
        });
        assert_eq!(a, b);
    }
}
