//! SELECT execution: scan with predicate pushdown and primary-key access
//! paths, greedy hash-join planning, grouping/aggregation, HAVING,
//! DISTINCT, ORDER BY, TOP, and projection — plus static output-schema
//! inference, which is what makes the Phoenix `WHERE 0=1` metadata probe
//! metadata-only on this engine too (constant-false predicates are folded
//! before any scan happens).

use std::collections::HashMap;

use super::access::TableRead;
use super::binding::{AggCall, BExpr, BoundCol};
use super::eval::{
    conjoin, eval, key_encode, normalize, split_conjuncts, truthy, Accumulator, AggContext, Binder,
    Env,
};
use super::{ExecCtx, TableSource};
use crate::error::{Error, Result};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{BinOp, Expr, OrderItem, SelectItem, SelectStmt, TableName, TableRef};
use crate::txn::locks::LockMode;
use crate::types::{Row, Value};

/// A materialized relation.
#[derive(Debug, Clone)]
pub struct Rel {
    /// Output column bindings.
    pub cols: Vec<BoundCol>,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Rel {
    /// Zero-row relation with the given shape.
    pub fn empty(cols: Vec<BoundCol>) -> Rel {
        Rel {
            cols,
            rows: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Static bindings / schema inference
// ---------------------------------------------------------------------------

/// Compute the column bindings a FROM clause produces, without executing.
pub fn relation_bindings(ctx: &ExecCtx, from: &[TableRef]) -> Result<Vec<BoundCol>> {
    let mut out = Vec::new();
    for tr in from {
        table_ref_bindings(ctx, tr, &mut out)?;
    }
    Ok(out)
}

fn table_ref_bindings(ctx: &ExecCtx, tr: &TableRef, out: &mut Vec<BoundCol>) -> Result<()> {
    match tr {
        TableRef::Table { table, alias } => {
            let src = ctx.resolve_table(table)?;
            let qual = alias.as_deref().unwrap_or(&table.name);
            out.extend(table_columns(qual, src.schema()));
        }
        TableRef::Derived { query, alias } => {
            let schema = infer_output_schema(ctx, query)?;
            for c in schema {
                out.push(BoundCol::new(Some(alias.clone()), c.name, c.dtype));
            }
        }
        TableRef::Join { left, right, .. } => {
            table_ref_bindings(ctx, left, out)?;
            table_ref_bindings(ctx, right, out)?;
        }
    }
    Ok(())
}

/// Static output schema of a SELECT — names and types — without executing
/// it. This is the engine-side substrate for the `WHERE 0=1` trick: Phoenix
/// gets complete result metadata from a query that never scans.
pub fn infer_output_schema(ctx: &ExecCtx, q: &SelectStmt) -> Result<Vec<Column>> {
    let input = relation_bindings(ctx, &q.from)?;
    let scopes = vec![input.clone()];
    let grouping = grouping(&Binder::new(ctx, scopes.clone()), q)?;
    let binder = Binder {
        ctx,
        scopes,
        agg_ctx: grouping.as_ref().map(|(agg_ctx, _)| agg_ctx),
    };
    let from_order: Vec<usize> = (0..input.len()).collect();
    Ok(bind_select_list(&binder, &input, &from_order, &q.items)?
        .into_iter()
        .map(|(e, name)| Column::new(name, e.dtype()))
        .collect())
}

/// The one aggregation rule: `q` aggregates when it has a GROUP BY or an
/// aggregate in its select list or HAVING. Then this returns its
/// aggregate context (the calls of the select list, HAVING and ORDER BY)
/// and its GROUP BY expressions, bound by `binder` for per-row
/// evaluation. Schema inference and execution both ask here, so a
/// query's static schema and its executed one cannot disagree.
fn grouping(binder: &Binder<'_>, q: &SelectStmt) -> Result<Option<(AggContext, Vec<BExpr>)>> {
    let items = q.items.iter().filter_map(|it| match it {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    if q.group_by.is_empty() && !items.clone().chain(&q.having).any(Expr::contains_aggregate) {
        return Ok(None);
    }
    let order: Vec<Expr> = q
        .order_by
        .iter()
        .map(|o| resolve_order_expr(q, &o.expr))
        .collect();
    let mut aggs: Vec<AggCall> = Vec::new();
    for e in items.chain(&q.having).chain(&order) {
        binder.collect_aggs(e, &mut aggs)?;
    }
    let keys: Vec<BExpr> = q
        .group_by
        .iter()
        .map(|g| binder.bind(g))
        .collect::<Result<_>>()?;
    let agg_ctx = AggContext {
        group_exprs: q.group_by.iter().map(normalize).collect(),
        key_types: keys.iter().map(BExpr::dtype).collect(),
        aggs,
    };
    Ok(Some((agg_ctx, keys)))
}

/// A table's columns, qualified by `qual`: its alias, or else its name.
pub(crate) fn table_columns(qual: &str, schema: &TableSchema) -> Vec<BoundCol> {
    schema
        .columns
        .iter()
        .map(|c| BoundCol::new(Some(qual.to_string()), c.name.clone(), c.dtype))
        .collect()
}

/// The one select-list expander: bind `items` over the `input` columns
/// with `binder` and name each output column. `*` and `t.*` pass the
/// input columns they cover through under their own names, in FROM
/// order: `from_order` holds each FROM-order column's position in
/// `input`, so a join that placed its units in another order moves no
/// value. `expr [AS name]` takes its alias, or else [`default_name`].
/// Under an aggregate context a column a wildcard passes through is an
/// error, since it is not grouped.
pub(crate) fn bind_select_list(
    binder: &Binder<'_>,
    input: &[BoundCol],
    from_order: &[usize],
    items: &[SelectItem],
) -> Result<Vec<(BExpr, String)>> {
    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let qual = match item {
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                out.push((binder.bind(expr)?, name));
                continue;
            }
            SelectItem::Wildcard => None,
            SelectItem::QualifiedWildcard(qual) => Some(qual),
        };
        for &idx in from_order {
            let c = &input[idx];
            let covered =
                qual.is_none_or(|q| c.qual.as_deref().is_some_and(|x| x.eq_ignore_ascii_case(q)));
            if !covered {
                continue;
            }
            if binder.agg_ctx.is_some() {
                return Err(Error::Semantic(format!(
                    "column '{}' must appear in GROUP BY",
                    c.name
                )));
            }
            let col = BExpr::Col {
                depth: 0,
                idx,
                dtype: c.dtype,
            };
            out.push((col, c.name.clone()));
        }
    }
    Ok(out)
}

/// The output name of an unaliased select-list expression at position
/// `idx`: a column's name, a function's lowercased name, else `col<n>`.
fn default_name(e: &Expr, idx: usize) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{}", idx + 1),
    }
}

/// The one constant-predicate short circuit: whether a WHERE conjunct of
/// `q` that reads no column and runs no subquery, such as the `WHERE
/// 0=1` probe, is not true. Then no row can qualify and the query is
/// answered from its schema alone. `execute_select` asks before it
/// chooses between the lazy and the materialized pipeline, and
/// [`run_select_materialized`] before it reads anything, so neither
/// opens a scan or takes a lock.
pub(crate) fn constant_false(ctx: &ExecCtx, q: &SelectStmt) -> Result<bool> {
    let binder = Binder::new(ctx, vec![Vec::new()]);
    for c in q.filter.iter().flat_map(split_conjuncts) {
        if conjunct_units(c, &[]).is_some_and(|units| units.is_empty())
            && truthy(&eval(ctx, &Env::base(&[]), &binder.bind(c)?)?) != Some(true)
        {
            return Ok(true);
        }
    }
    Ok(false)
}

// ---------------------------------------------------------------------------
// Scanning with pushdown
// ---------------------------------------------------------------------------

/// Read a base or temp table, keeping the rows the pushed-down conjuncts
/// accept: a base table through the access path they allow.
fn scan_filtered(
    ctx: &ExecCtx,
    table: &TableName,
    alias: Option<&str>,
    pushed: &[&Expr],
) -> Result<Rel> {
    let filter =
        (!pushed.is_empty()).then(|| conjoin(pushed.iter().map(|e| (*e).clone()).collect()));
    let read = TableRead::plan(ctx, table, alias, filter.as_ref())?;
    let cols = read.cols.clone();
    let rows = if let TableSource::Temp { .. } = &read.source {
        let mut kept = Vec::new();
        for row in ctx.temp_rows(table)?.iter() {
            if read.accepts(ctx, row)? {
                kept.push(row.clone());
            }
        }
        kept
    } else {
        read.rows(ctx, LockMode::Shared)?
            .map(|r| r.map(|(_, row)| row))
            .collect::<Result<_>>()?
    };
    Ok(Rel { cols, rows })
}

// ---------------------------------------------------------------------------
// Join planning
// ---------------------------------------------------------------------------

/// Evaluate one FROM unit (table / derived / join tree) into a relation.
fn eval_table_ref(ctx: &ExecCtx, tr: &TableRef, pushed: &[&Expr]) -> Result<Rel> {
    match tr {
        TableRef::Table { table, alias } => scan_filtered(ctx, table, alias.as_deref(), pushed),
        TableRef::Derived { query, alias } => {
            let rel = run_select_materialized(ctx, query, &[], None)?;
            let cols = rel
                .cols
                .iter()
                .map(|c| BoundCol::new(Some(alias.clone()), c.name.clone(), c.dtype))
                .collect();
            let mut out = Rel {
                cols,
                rows: rel.rows,
            };
            keep_rows(ctx, &mut out, pushed, &[], None)?;
            Ok(out)
        }
        TableRef::Join {
            left,
            right,
            on,
            outer,
        } => {
            let l = eval_table_ref(ctx, left, &[])?;
            let r = eval_table_ref(ctx, right, &[])?;
            let mut joined = join_on(ctx, l, r, &split_conjuncts(on), *outer)?;
            keep_rows(ctx, &mut joined, pushed, &[], None)?;
            Ok(joined)
        }
    }
}

/// The one row filter: keep the rows of `rel` on which every conjunct
/// is true. Correlated references bind to `outer_scopes` and read
/// `outer_env`; a pushed-down filter passes neither.
fn keep_rows(
    ctx: &ExecCtx,
    rel: &mut Rel,
    conjuncts: &[&Expr],
    outer_scopes: &[Vec<BoundCol>],
    outer_env: Option<&Env<'_>>,
) -> Result<()> {
    if conjuncts.is_empty() {
        return Ok(());
    }
    let mut scopes = vec![rel.cols.clone()];
    scopes.extend(outer_scopes.iter().cloned());
    let f = Binder::new(ctx, scopes)
        .bind(&conjoin(conjuncts.iter().map(|e| (*e).clone()).collect()))?;
    let mut kept = Vec::with_capacity(rel.rows.len());
    for row in rel.rows.drain(..) {
        if truthy(&eval(ctx, &Env::child(&row, outer_env), &f)?) == Some(true) {
            kept.push(row);
        }
    }
    rel.rows = kept;
    Ok(())
}

/// Hash join of two relations on the equi-conjuncts of `on`: build on
/// the right, then probe with each left row in order. The other
/// conjuncts filter each combined pair, and an outer join pads an
/// unmatched left row with NULLs. With no equi-conjunct the key is
/// empty, so one bucket holds every right row in input order: a nested
/// loop, with the same outer padding, since an empty key is never NULL.
fn join_on(ctx: &ExecCtx, left: Rel, right: Rel, on: &[&Expr], outer: bool) -> Result<Rel> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.clone());
    let combined_binder = Binder::new(ctx, vec![cols.clone()]);

    // Split the equi-conditions usable as hash keys from the rest.
    let lbinder = Binder::new(ctx, vec![left.cols.clone()]);
    let rbinder = Binder::new(ctx, vec![right.cols.clone()]);
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for &c in on {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = c
        {
            match (lbinder.bind(a), rbinder.bind(b)) {
                (Ok(la), Ok(rb)) => {
                    lkeys.push(la);
                    rkeys.push(rb);
                    continue;
                }
                _ => {
                    if let (Ok(lb), Ok(ra)) = (lbinder.bind(b), rbinder.bind(a)) {
                        lkeys.push(lb);
                        rkeys.push(ra);
                        continue;
                    }
                }
            }
        }
        residual.push(c.clone());
    }
    let residual_b = if residual.is_empty() {
        None
    } else {
        Some(combined_binder.bind(&conjoin(residual))?)
    };

    let rwidth = right.cols.len();
    let mut out_rows = Vec::new();
    // Build on right, probe left (preserves left order; left outer easy).
    let mut table: HashMap<Vec<u8>, Vec<&Row>> = HashMap::new();
    for rrow in &right.rows {
        let env = Env::base(rrow);
        let kv: Vec<Value> = rkeys
            .iter()
            .map(|k| eval(ctx, &env, k))
            .collect::<Result<_>>()?;
        if kv.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key_encode(&kv)).or_default().push(rrow);
    }
    for lrow in &left.rows {
        let env = Env::base(lrow);
        let kv: Vec<Value> = lkeys
            .iter()
            .map(|k| eval(ctx, &env, k))
            .collect::<Result<_>>()?;
        let mut matched = false;
        if !kv.iter().any(Value::is_null) {
            if let Some(cands) = table.get(&key_encode(&kv)) {
                for rrow in cands {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    let ok = match &residual_b {
                        Some(f) => truthy(&eval(ctx, &Env::base(&combined), f)?) == Some(true),
                        None => true,
                    };
                    if ok {
                        matched = true;
                        out_rows.push(combined);
                    }
                }
            }
        }
        if outer && !matched {
            let mut combined = lrow.clone();
            combined.extend(std::iter::repeat_n(Value::Null, rwidth));
            out_rows.push(combined);
        }
    }
    Ok(Rel {
        cols,
        rows: out_rows,
    })
}

/// Split an OR tree into disjuncts.
fn split_disjuncts(e: &Expr) -> Vec<&Expr> {
    fn rec<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::Or,
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
    let mut out = Vec::new();
    rec(e, &mut out);
    out
}

fn disjoin(mut list: Vec<Expr>) -> Expr {
    // The empty disjunction is vacuously false.
    let mut acc = match list.pop() {
        Some(e) => e,
        None => Expr::Literal(Value::Int(0)),
    };
    while let Some(e) = list.pop() {
        acc = Expr::Binary {
            op: BinOp::Or,
            left: Box::new(e),
            right: Box::new(acc),
        };
    }
    acc
}

/// OR-factorization: rewrite `(A AND X) OR (A AND Y)` into
/// `A AND (X OR Y)`. This is what lets TPC-H Q19's equi-join predicate
/// (buried inside each OR branch) surface as a hash-join edge instead of
/// forcing a cartesian product. Returns the replacement conjunct list.
fn factor_or_conjunct(e: &Expr) -> Vec<Expr> {
    if !matches!(e, Expr::Binary { op: BinOp::Or, .. }) {
        return vec![e.clone()];
    }
    let disjuncts = split_disjuncts(e);
    if disjuncts.len() < 2 {
        return vec![e.clone()];
    }
    let branch_conjs: Vec<Vec<&Expr>> = disjuncts.iter().map(|d| split_conjuncts(d)).collect();
    let branch_norms: Vec<Vec<Expr>> = branch_conjs
        .iter()
        .map(|cs| cs.iter().map(|c| normalize(c)).collect())
        .collect();

    // Conjuncts of the first branch present (structurally) in every branch.
    let mut common_idx: Vec<usize> = Vec::new();
    for (i, n) in branch_norms[0].iter().enumerate() {
        if branch_norms[1..].iter().all(|b| b.contains(n)) {
            common_idx.push(i);
        }
    }
    if common_idx.is_empty() {
        return vec![e.clone()];
    }
    let common_norms: Vec<&Expr> = common_idx.iter().map(|&i| &branch_norms[0][i]).collect();
    let mut out: Vec<Expr> = common_idx
        .iter()
        .map(|&i| branch_conjs[0][i].clone())
        .collect();

    // Each branch minus one occurrence of every common conjunct.
    let mut remainders: Vec<Expr> = Vec::new();
    let mut all_empty = true;
    for (cs, ns) in branch_conjs.iter().zip(&branch_norms) {
        let mut used = vec![false; cs.len()];
        for cn in &common_norms {
            if let Some(i) = ns
                .iter()
                .enumerate()
                .position(|(i, n)| !used[i] && n == *cn)
            {
                used[i] = true;
            }
        }
        let rest: Vec<Expr> = cs
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(c, _)| (*c).clone())
            .collect();
        if rest.is_empty() {
            // One branch is exactly the common part ⇒ OR is implied.
            continue;
        }
        all_empty = false;
        remainders.push(conjoin(rest));
    }
    if !all_empty && !remainders.is_empty() && remainders.len() == branch_conjs.len() {
        out.push(disjoin(remainders));
    }
    out
}

/// Which FROM units a conjunct references (by unit index); `None` if it
/// references something outside all units (outer scope) or a subquery.
fn conjunct_units(conj: &Expr, unit_bindings: &[Vec<BoundCol>]) -> Option<Vec<usize>> {
    let mut units = Vec::new();
    let mut external = false;
    let mut has_sub = false;
    conj.walk(&mut |e| match e {
        Expr::Column { table, name } => {
            let mut found = false;
            for (i, b) in unit_bindings.iter().enumerate() {
                if super::binding::resolve_col(&[b.as_slice()], table.as_deref(), name).is_ok() {
                    if !units.contains(&i) {
                        units.push(i);
                    }
                    found = true;
                    break;
                }
            }
            if !found {
                external = true;
            }
        }
        Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_) => {
            has_sub = true;
        }
        _ => {}
    });
    if external || has_sub {
        None
    } else {
        Some(units)
    }
}

// ---------------------------------------------------------------------------
// Full SELECT pipeline
// ---------------------------------------------------------------------------

/// Execute a SELECT and materialize the result.
///
/// `outer_scopes`/`outer_env` carry correlation context when this is a
/// subquery execution; both empty for top-level queries.
pub fn run_select_materialized(
    ctx: &ExecCtx,
    q: &SelectStmt,
    outer_scopes: &[Vec<BoundCol>],
    outer_env: Option<&Env<'_>>,
) -> Result<Rel> {
    if constant_false(ctx, q)? {
        let cols = infer_output_schema(ctx, q)?
            .into_iter()
            .map(|c| BoundCol::new(None, c.name, c.dtype))
            .collect();
        return Ok(Rel::empty(cols));
    }

    // ---- FROM + WHERE: build the joined, filtered input relation ----
    let unit_bindings: Vec<Vec<BoundCol>> = q
        .from
        .iter()
        .map(|tr| {
            let mut b = Vec::new();
            table_ref_bindings(ctx, tr, &mut b)?;
            Ok(b)
        })
        .collect::<Result<_>>()?;

    // Conjuncts, with OR-factorization applied so equi-joins hidden in
    // disjunctions (e.g. Q19) still plan as hash joins.
    let factored: Vec<Expr> = q
        .filter
        .as_ref()
        .map(|f| {
            split_conjuncts(f)
                .into_iter()
                .flat_map(factor_or_conjunct)
                .collect()
        })
        .unwrap_or_default();

    // Classify conjuncts. A constant one is true (see `constant_false`)
    // unless OR-factorization produced it, so it joins the residual.
    let mut pushed: Vec<Vec<&Expr>> = vec![Vec::new(); q.from.len()];
    let mut join_edges: Vec<(&Expr, usize, usize)> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in &factored {
        match conjunct_units(c, &unit_bindings) {
            Some(units) if units.len() == 1 => pushed[units[0]].push(c),
            Some(units) if units.len() == 2 => {
                if matches!(c, Expr::Binary { op: BinOp::Eq, .. }) {
                    join_edges.push((c, units[0], units[1]));
                } else {
                    residual.push(c);
                }
            }
            _ => residual.push(c),
        }
    }

    // Evaluate units with pushdown.
    let mut rels: Vec<Option<Rel>> = q
        .from
        .iter()
        .zip(&pushed)
        .map(|(tr, p)| eval_table_ref(ctx, tr, p).map(Some))
        .collect::<Result<_>>()?;

    // Greedy join order: start from the smallest relation. Joined
    // columns stay where the join put them; `spans[u]` records where
    // unit `u`'s columns landed in the joined row.
    let n = rels.len();
    let mut current: Rel;
    let mut joined_units: Vec<usize> = Vec::new();
    let mut spans = vec![0..0; n];
    if n == 0 {
        current = Rel {
            cols: Vec::new(),
            rows: vec![Vec::new()],
        };
    } else {
        let start = (0..n)
            .min_by_key(|&i| rels[i].as_ref().map_or(0, |r| r.rows.len()))
            .unwrap_or(0);
        current = rels[start]
            .take()
            .ok_or_else(|| Error::Storage("join planner lost its starting relation".into()))?;
        joined_units.push(start);
        spans[start] = 0..current.cols.len();
        while joined_units.len() < n {
            // Prefer a unit connected by an equi-edge.
            let next = (0..n)
                .filter(|i| rels[*i].is_some())
                .find(|&i| {
                    join_edges.iter().any(|(_, a, b)| {
                        (joined_units.contains(a) && *b == i)
                            || (joined_units.contains(b) && *a == i)
                    })
                })
                .or_else(|| {
                    (0..n)
                        .filter(|i| rels[*i].is_some())
                        .min_by_key(|&i| rels[i].as_ref().map_or(usize::MAX, |r| r.rows.len()))
                });
            let Some(next) = next else { break };
            let Some(right) = rels[next].take() else {
                break;
            };
            // Collect all edges now satisfied (between joined set+next);
            // with none, this is a cartesian product.
            let mut on_parts: Vec<&Expr> = Vec::new();
            join_edges.retain(|&(c, a, b)| {
                let usable = (joined_units.contains(&a) && b == next)
                    || (joined_units.contains(&b) && a == next);
                if usable {
                    on_parts.push(c);
                }
                !usable
            });
            let at = current.cols.len();
            spans[next] = at..at + right.cols.len();
            current = join_on(ctx, current, right, &on_parts, false)?;
            joined_units.push(next);
        }
        // Edges that connected units in arbitrary order but were not
        // consumed become residual filters.
        residual.extend(join_edges.into_iter().map(|(c, _, _)| c));
    }

    // A wildcard reads each FROM-order column at its joined position.
    let from_order: Vec<usize> = spans.into_iter().flatten().collect();

    // Residual filter (may be correlated → bind with outer scopes).
    keep_rows(ctx, &mut current, &residual, outer_scopes, outer_env)?;

    // ---- Aggregation / projection / order / distinct / top ----
    project_and_finish(ctx, q, &current, &from_order, outer_scopes, outer_env)
}

/// Everything after the joined+filtered input relation, whose FROM-order
/// columns sit at the positions `from_order` gives.
fn project_and_finish(
    ctx: &ExecCtx,
    q: &SelectStmt,
    input: &Rel,
    from_order: &[usize],
    outer_scopes: &[Vec<BoundCol>],
    outer_env: Option<&Env<'_>>,
) -> Result<Rel> {
    let mut scopes = vec![input.cols.clone()];
    scopes.extend(outer_scopes.iter().cloned());
    let grouping = grouping(&Binder::new(ctx, scopes.clone()), q)?;
    let binder = Binder {
        ctx,
        scopes,
        agg_ctx: grouping.as_ref().map(|(agg_ctx, _)| agg_ctx),
    };
    let bound_out = bind_select_list(&binder, &input.cols, from_order, &q.items)?;
    // ORDER BY aliases and ordinals resolve to plain expressions.
    let bound_order: Vec<(BExpr, bool)> = q
        .order_by
        .iter()
        .map(|OrderItem { expr, desc }| Ok((binder.bind(&resolve_order_expr(q, expr))?, *desc)))
        .collect::<Result<_>>()?;
    let bound_having = q.having.as_ref().map(|h| binder.bind(h)).transpose()?;

    // One output row and its ORDER BY keys, unless HAVING rejects it.
    let project = |env: &Env<'_>| -> Result<Option<(Row, Vec<Value>)>> {
        if let Some(h) = &bound_having {
            if truthy(&eval(ctx, env, h)?) != Some(true) {
                return Ok(None);
            }
        }
        let row: Row = bound_out
            .iter()
            .map(|(e, _)| eval(ctx, env, e))
            .collect::<Result<_>>()?;
        let okeys: Vec<Value> = bound_order
            .iter()
            .map(|(e, _)| eval(ctx, env, e))
            .collect::<Result<_>>()?;
        Ok(Some((row, okeys)))
    };
    let mut projected: Vec<(Row, Vec<Value>)> = Vec::new();
    match &grouping {
        None => {
            for row in &input.rows {
                projected.extend(project(&Env::child(row, outer_env))?);
            }
        }
        Some((agg_ctx, key_exprs)) => {
            // One representative row per group, with its keys and
            // accumulators.
            struct Group {
                rep: Row,
                keys: Vec<Value>,
                accs: Vec<Accumulator>,
            }
            let new_group = |rep: Row, keys: Vec<Value>| Group {
                rep,
                keys,
                accs: agg_ctx.aggs.iter().map(Accumulator::new).collect(),
            };
            let mut groups: HashMap<Vec<u8>, Group> = HashMap::new();
            let mut order: Vec<Vec<u8>> = Vec::new();
            for row in &input.rows {
                let env = Env::child(row, outer_env);
                let keys: Vec<Value> = key_exprs
                    .iter()
                    .map(|g| eval(ctx, &env, g))
                    .collect::<Result<_>>()?;
                let gk = key_encode(&keys);
                let group = groups.entry(gk.clone()).or_insert_with(|| {
                    order.push(gk);
                    new_group(row.clone(), keys)
                });
                for (acc, call) in group.accs.iter_mut().zip(&agg_ctx.aggs) {
                    acc.add(match &call.arg {
                        Some(a) => eval(ctx, &env, a)?,
                        None => Value::Int(1),
                    });
                }
            }
            // Scalar aggregate over empty input still yields one row.
            if order.is_empty() && q.group_by.is_empty() {
                order.push(Vec::new());
                let rep = vec![Value::Null; input.cols.len()];
                groups.insert(Vec::new(), new_group(rep, Vec::new()));
            }
            // `order` holds each group key exactly once, in first-seen
            // order, so draining `groups` through it visits every group.
            for g in order.iter().filter_map(|gk| groups.remove(gk)) {
                let aggs: Vec<Value> = g.accs.into_iter().map(Accumulator::finish).collect();
                projected.extend(project(&Env {
                    row: &g.rep,
                    agg: Some((&g.keys, &aggs)),
                    parent: outer_env,
                })?);
            }
        }
    }

    // DISTINCT.
    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        projected.retain(|(row, _)| seen.insert(key_encode(row)));
    }

    // ORDER BY.
    if !bound_order.is_empty() {
        projected.sort_by(|(_, a), (_, b)| {
            for (i, (_, desc)) in bound_order.iter().enumerate() {
                let c = a[i].total_cmp(&b[i]);
                let c = if *desc { c.reverse() } else { c };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // TOP.
    if let Some(t) = q.top {
        projected.truncate(t as usize);
    }

    let cols: Vec<BoundCol> = bound_out
        .iter()
        .map(|(e, name)| BoundCol::new(None, name.clone(), e.dtype()))
        .collect();
    Ok(Rel {
        cols,
        rows: projected.into_iter().map(|(r, _)| r).collect(),
    })
}

/// ORDER BY may reference a select alias or an ordinal position.
fn resolve_order_expr(q: &SelectStmt, e: &Expr) -> Expr {
    match e {
        Expr::Literal(Value::Int(n)) if *n >= 1 => {
            // Ordinal.
            let mut idx = *n as usize;
            for it in &q.items {
                if let SelectItem::Expr { expr, .. } = it {
                    idx -= 1;
                    if idx == 0 {
                        return expr.clone();
                    }
                }
            }
            e.clone()
        }
        Expr::Column { table: None, name } => {
            for it in &q.items {
                if let SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } = it
                {
                    if a.eq_ignore_ascii_case(name) {
                        return expr.clone();
                    }
                }
            }
            e.clone()
        }
        _ => e.clone(),
    }
}
