//! Statement execution: DML, DDL, stored procedures, and the SELECT entry
//! points (lazy pipeline for simple scans so results can stream into the
//! server's bounded output buffer; materialized pipeline for everything
//! else).

mod access;
pub mod binding;
pub mod eval;
pub mod select;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::catalog::TableMeta;
use crate::error::{Error, Result};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{ColumnDef, InsertSource, SelectItem, SelectStmt, Stmt, TableName, TableRef};
use crate::sql::parser::{parse_one, parse_statements};
use crate::storage::heap::DdlBatch;
use crate::storage::Storage;
use crate::txn::locks::LockMode;
use crate::txn::TxnHandle;
use crate::types::{DataType, Row, Value};
use binding::{BExpr, BoundCol};
use eval::{eval, truthy, Binder, Env};
use select::{infer_output_schema, run_select_materialized};

/// Session-local temp tables: volatile, die with the session (the property
/// Phoenix's post-crash liveness probe relies on).
#[derive(Default)]
pub struct TempTables {
    /// Tables keyed by lowercased name (without the `#`).
    pub tables: HashMap<String, TempTable>,
}

/// One session-local temp table.
pub struct TempTable {
    /// Declared schema.
    pub schema: TableSchema,
    /// Row storage (no paging/WAL — temp tables are volatile by design).
    pub rows: Vec<Row>,
}

impl TempTables {
    /// Approximate resident bytes across every temp table — the engine's
    /// contribution to a session's memory-budget charge in the server's
    /// admission controller. An accounting estimate (fixed widths plus
    /// string payloads), not an allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (name, t) in &self.tables {
            total += 64 + name.len() as u64;
            for row in &t.rows {
                for v in row {
                    total += match v {
                        Value::Str(s) => 24 + s.len() as u64,
                        _ => 8,
                    };
                }
            }
        }
        total
    }
}

/// Either a catalog table or a session temp table, resolved for reading.
#[allow(missing_docs)]
pub enum TableSource {
    /// A durable catalog table.
    Base {
        meta: Arc<RwLock<TableMeta>>,
        schema: TableSchema,
    },
    /// A snapshot of a session temp table.
    Temp { schema: TableSchema, rows: Vec<Row> },
}

impl TableSource {
    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        match self {
            TableSource::Base { schema, .. } => schema,
            TableSource::Temp { schema, .. } => schema,
        }
    }
}

/// Execution context for one statement.
#[derive(Clone)]
pub struct ExecCtx {
    /// The storage kernel.
    pub storage: Arc<Storage>,
    /// The executing transaction.
    pub txn: Arc<TxnHandle>,
    /// The session's temp tables.
    pub temps: Arc<Mutex<TempTables>>,
    /// Procedure parameters (lowercased names).
    pub params: Arc<HashMap<String, Value>>,
    /// Procedure call depth (recursion guard).
    pub depth: u32,
    /// What the statement batch this statement belongs to has done so far.
    pub effects: Arc<Mutex<BatchEffects>>,
}

/// A table change the server's admission accounting follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableEffect {
    /// `rows` were written into `table` (INSERT, or `SELECT … INTO`).
    Loaded { table: String, rows: u64 },
    /// A `DROP TABLE` of `table` succeeded (`IF EXISTS` included, whether
    /// or not the table existed).
    Dropped { table: String },
}

/// What a statement batch leaves for [`crate::Engine::execute`] to finish:
/// the DDL to force before the batch returns, and the table effects to
/// report, in execution order. Temp tables appear in neither.
#[derive(Default)]
pub struct BatchEffects {
    /// DDL top actions awaiting the batch's one log force.
    pub ddl: DdlBatch,
    /// Durable-table writes and drops.
    pub tables: Vec<TableEffect>,
}

impl ExecCtx {
    fn report(&self, effect: TableEffect) {
        self.effects.lock().tables.push(effect);
    }

    /// Resolve a (possibly temp) table name for reading.
    pub fn resolve_table(&self, t: &TableName) -> Result<TableSource> {
        if t.temp {
            let temps = self.temps.lock();
            let tt = temps
                .tables
                .get(&t.name.to_ascii_lowercase())
                .ok_or_else(|| Error::NotFound(format!("temp table #{}", t.name)))?;
            Ok(TableSource::Temp {
                schema: tt.schema.clone(),
                rows: tt.rows.clone(),
            })
        } else {
            let meta = self
                .storage
                .catalog
                .resolve(&t.name)
                .ok_or_else(|| Error::NotFound(format!("table {}", t.name)))?;
            let schema = meta.read().schema.clone();
            Ok(TableSource::Base { meta, schema })
        }
    }
}

/// Result rows: lazily streamed or fully materialized.
#[allow(missing_docs)]
pub enum RowsSource {
    /// Fully computed rows.
    Materialized(std::vec::IntoIter<Row>),
    /// Rows produced on demand (simple scans).
    Lazy(Box<dyn Iterator<Item = Result<Row>> + Send>),
}

/// A result set with its schema.
pub struct Rows {
    /// Output column names and types.
    pub schema: Vec<Column>,
    /// Row stream.
    pub source: RowsSource,
}

impl Iterator for Rows {
    type Item = Result<Row>;
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.source {
            RowsSource::Materialized(it) => it.next().map(Ok),
            RowsSource::Lazy(it) => it.next(),
        }
    }
}

/// Statement outcome at the executor level.
#[allow(missing_docs)]
pub enum StmtOutcome {
    /// A result set.
    Rows(Rows),
    /// DML row count.
    Affected(u64),
    /// DDL / control success.
    Ok,
    /// Bubbles up to the server, which crashes or stops the engine.
    Shutdown { nowait: bool },
}

/// Execute one parsed statement. Transaction control (`BEGIN`/`COMMIT`/
/// `ROLLBACK`) is handled by the engine layer, not here.
pub fn execute_stmt(ctx: &ExecCtx, stmt: &Stmt) -> Result<StmtOutcome> {
    match stmt {
        Stmt::Select(q) => Ok(StmtOutcome::Rows(execute_select(ctx, q)?)),
        Stmt::SelectInto { table, query } => exec_select_into(ctx, table, query),
        Stmt::Insert {
            table,
            columns,
            source,
        } => exec_insert(ctx, table, columns.as_deref(), source),
        Stmt::Update {
            table,
            sets,
            filter,
        } => exec_update(ctx, table, sets, filter.as_ref()),
        Stmt::Delete { table, filter } => exec_delete(ctx, table, filter.as_ref()),
        Stmt::CreateTable {
            table,
            columns,
            primary_key,
        } => exec_create_table(ctx, table, columns, primary_key),
        Stmt::DropTable { table, if_exists } => exec_drop_table(ctx, table, *if_exists),
        Stmt::CreateProc {
            name,
            params,
            body,
            or_replace,
        } => {
            let text = render_proc_text(name, params, body);
            ctx.storage
                .create_proc(&mut ctx.effects.lock().ddl, name, &text, *or_replace)?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::DropProc { name } => {
            ctx.storage.drop_proc(&mut ctx.effects.lock().ddl, name)?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::Exec { name, args } => exec_procedure(ctx, name, args),
        Stmt::Checkpoint => {
            ctx.storage.checkpoint()?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::Shutdown { nowait } => Ok(StmtOutcome::Shutdown { nowait: *nowait }),
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => Err(Error::Internal(
            "transaction control must be handled by the engine".into(),
        )),
    }
}

/// Canonical self-describing stored-procedure text (what the catalog and
/// WAL persist; re-parsed at EXEC time).
fn render_proc_text(name: &str, params: &[(String, DataType)], body: &str) -> String {
    let plist = params
        .iter()
        .map(|(n, t)| format!("@{n} {t}"))
        .collect::<Vec<_>>()
        .join(", ");
    if params.is_empty() {
        format!("CREATE PROCEDURE {name} AS {body}")
    } else {
        format!("CREATE PROCEDURE {name} ({plist}) AS {body}")
    }
}

// ---------------------------------------------------------------------------
// SELECT entry
// ---------------------------------------------------------------------------

/// Execute a SELECT: lazy streaming pipeline when the shape allows it,
/// otherwise the materializing pipeline.
pub fn execute_select(ctx: &ExecCtx, q: &crate::sql::ast::SelectStmt) -> Result<Rows> {
    if let Some(rows) = try_lazy_select(ctx, q)? {
        return Ok(rows);
    }
    let rel = run_select_materialized(ctx, q, &[], None)?;
    let schema = rel
        .cols
        .iter()
        .map(|c| Column::new(c.name.clone(), c.dtype))
        .collect();
    Ok(Rows {
        schema,
        source: RowsSource::Materialized(rel.rows.into_iter()),
    })
}

/// Lazy pipeline: single base table, no grouping/ordering/distinct, no
/// subqueries. Produces rows on demand so a `TOP N` scan into a full
/// network buffer suspends exactly as the paper describes.
fn try_lazy_select(ctx: &ExecCtx, q: &crate::sql::ast::SelectStmt) -> Result<Option<Rows>> {
    if q.from.len() != 1
        || !q.group_by.is_empty()
        || q.having.is_some()
        || !q.order_by.is_empty()
        || q.distinct
    {
        return Ok(None);
    }
    let TableRef::Table { table, alias } = &q.from[0] else {
        return Ok(None);
    };
    if table.temp {
        return Ok(None);
    }
    // No aggregates or subqueries anywhere.
    let mut blocked = false;
    let mut check = |e: &crate::sql::ast::Expr| {
        if e.contains_aggregate() {
            blocked = true;
        }
        e.walk(&mut |n| {
            use crate::sql::ast::Expr as E;
            if matches!(
                n,
                E::Exists { .. } | E::InSubquery { .. } | E::ScalarSubquery(_)
            ) {
                blocked = true;
            }
        });
    };
    for it in &q.items {
        if let SelectItem::Expr { expr, .. } = it {
            check(expr);
        }
    }
    if let Some(f) = &q.filter {
        check(f);
    }
    if blocked {
        return Ok(None);
    }

    let src = ctx.resolve_table(table)?;
    let TableSource::Base { meta, schema } = src else {
        return Ok(None);
    };
    // Primary-key point queries go through the materialized path: a lazy
    // cursor would keep its row lock until the client drains it.
    let conjuncts: Vec<&crate::sql::ast::Expr> = q
        .filter
        .as_ref()
        .map(eval::split_conjuncts)
        .unwrap_or_default();
    let path = access::choose(ctx, &schema, &conjuncts);
    if matches!(path, access::AccessPath::Point(_)) {
        return Ok(None);
    }
    let table_id = meta.read().id;

    let qual = alias.clone().unwrap_or_else(|| table.name.clone());
    let cols: Vec<BoundCol> = schema
        .columns
        .iter()
        .map(|c| BoundCol::new(Some(qual.clone()), c.name.clone(), c.dtype))
        .collect();
    let binder = Binder::new(ctx, vec![cols.clone()]);
    let filter = q.filter.as_ref().map(|f| binder.bind(f)).transpose()?;

    // Output items.
    let mut out: Vec<(BExpr, String)> = Vec::new();
    for (i, it) in q.items.iter().enumerate() {
        match it {
            SelectItem::Wildcard => {
                for (k, c) in cols.iter().enumerate() {
                    out.push((
                        BExpr::Col {
                            depth: 0,
                            idx: k,
                            dtype: c.dtype,
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(qw) => {
                for (k, c) in cols.iter().enumerate() {
                    if c.qual
                        .as_deref()
                        .map(|x| x.eq_ignore_ascii_case(qw))
                        .unwrap_or(false)
                    {
                        out.push((
                            BExpr::Col {
                                depth: 0,
                                idx: k,
                                dtype: c.dtype,
                            },
                            c.name.clone(),
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let b = binder.bind(expr)?;
                let name = alias.clone().unwrap_or_else(|| match expr {
                    crate::sql::ast::Expr::Column { name, .. } => name.clone(),
                    _ => format!("col{}", i + 1),
                });
                out.push((b, name));
            }
        }
    }
    let out_schema: Vec<Column> = out
        .iter()
        .map(|(e, n)| Column::new(n.clone(), e.dtype()))
        .collect();

    let mut scan = access::open(ctx, table_id, &schema, &path, LockMode::Shared)?;
    // The iterator owns clones of everything it needs. `Storage` is kept
    // alive through the context clone. `from_fn` (rather than filter_map)
    // so a satisfied TOP-N stops the scan instead of draining the table.
    let ctx2 = ctx.clone();
    let top = q.top;
    let mut produced: u64 = 0;
    let mut failed = false;
    let iter = std::iter::from_fn(move || {
        if failed {
            return None;
        }
        if let Some(t) = top {
            if produced >= t {
                return None;
            }
        }
        loop {
            let row = match scan.next()? {
                Ok((_, r)) => r,
                Err(e) => {
                    failed = true;
                    return Some(Err(e));
                }
            };
            let env = Env::base(&row);
            if let Some(f) = &filter {
                match eval(&ctx2, &env, f) {
                    Ok(v) => {
                        if truthy(&v) != Some(true) {
                            continue;
                        }
                    }
                    Err(e) => {
                        failed = true;
                        return Some(Err(e));
                    }
                }
            }
            let projected: Result<Row> = out.iter().map(|(e, _)| eval(&ctx2, &env, e)).collect();
            return match projected {
                Ok(r) => {
                    produced += 1;
                    Some(Ok(r))
                }
                Err(e) => {
                    failed = true;
                    Some(Err(e))
                }
            };
        }
    });

    Ok(Some(Rows {
        schema: out_schema,
        source: RowsSource::Lazy(Box::new(iter)),
    }))
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

fn exec_insert(
    ctx: &ExecCtx,
    table: &TableName,
    columns: Option<&[String]>,
    source: &InsertSource,
) -> Result<StmtOutcome> {
    // Produce the source rows first (the SELECT may scan other tables).
    let src_rows: Vec<Row> = match source {
        InsertSource::Values(rows) => {
            let binder = Binder::new(ctx, vec![Vec::new()]);
            let empty: Row = Vec::new();
            let env = Env::base(&empty);
            rows.iter()
                .map(|exprs| {
                    exprs
                        .iter()
                        .map(|e| eval(ctx, &env, &binder.bind(e)?))
                        .collect::<Result<Row>>()
                })
                .collect::<Result<_>>()?
        }
        // Use the full SELECT entry point so simple TOP-N scans take the
        // lazy pipeline and stop early instead of materializing the whole
        // table first.
        InsertSource::Select(q) => execute_select(ctx, q)?.collect::<Result<Vec<Row>>>()?,
    };
    insert_rows(ctx, table, columns, src_rows)
}

/// `SELECT … INTO`: run the query, then create the table from its output
/// schema and load the rows. The query runs first, so one that fails
/// leaves no table behind.
fn exec_select_into(ctx: &ExecCtx, table: &TableName, q: &SelectStmt) -> Result<StmtOutcome> {
    let columns = select_into_columns(&infer_output_schema(ctx, q)?);
    let rows = execute_select(ctx, q)?.collect::<Result<Vec<Row>>>()?;
    exec_create_table(ctx, table, &columns, &[])?;
    faultkit::crashpoint!("persist.create");
    let loaded = insert_rows(ctx, table, None, rows)?;
    faultkit::crashpoint!("persist.materialize");
    Ok(loaded)
}

/// The columns `SELECT … INTO` gives its table, from the query's output
/// schema: an empty name becomes `c<i>`, and a name that repeats an
/// earlier one (ignoring case) becomes `<name>_<i>`, with `i` counting
/// from 1. Every column is nullable and there is no primary key.
pub fn select_into_columns(schema: &[Column]) -> Vec<ColumnDef> {
    let mut seen = HashSet::new();
    schema
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut name = if c.name.is_empty() {
                format!("c{}", i + 1)
            } else {
                c.name.clone()
            };
            if !seen.insert(name.to_ascii_lowercase()) {
                name = format!("{name}_{}", i + 1);
                seen.insert(name.to_ascii_lowercase());
            }
            ColumnDef {
                name,
                dtype: c.dtype,
                not_null: false,
                primary_key: false,
            }
        })
        .collect()
}

/// Write `src_rows` into `table`, through the optional column list.
fn insert_rows(
    ctx: &ExecCtx,
    table: &TableName,
    columns: Option<&[String]>,
    src_rows: Vec<Row>,
) -> Result<StmtOutcome> {
    let schema = ctx.resolve_table(table)?.schema().clone();
    // Map through the optional column list.
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .col_index(c)
                    .ok_or_else(|| Error::Semantic(format!("unknown column {c}")))
            })
            .collect::<Result<_>>()?,
        None => (0..schema.arity()).collect(),
    };

    let mut full_rows = Vec::with_capacity(src_rows.len());
    for r in src_rows {
        if r.len() != positions.len() {
            return Err(Error::Semantic(format!(
                "INSERT expects {} values, got {}",
                positions.len(),
                r.len()
            )));
        }
        let mut full = vec![Value::Null; schema.arity()];
        for (v, &p) in r.into_iter().zip(&positions) {
            full[p] = v;
        }
        full_rows.push(schema.conform(full)?);
    }

    if table.temp {
        let mut temps = ctx.temps.lock();
        let tt = temps
            .tables
            .get_mut(&table.name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("temp table #{}", table.name)))?;
        let n = full_rows.len();
        tt.rows.extend(full_rows);
        return Ok(StmtOutcome::Affected(n as u64));
    }

    let meta = ctx
        .storage
        .catalog
        .resolve(&table.name)
        .ok_or_else(|| Error::NotFound(format!("table {}", table.name)))?;
    let table_id = meta.read().id;
    if schema.primary_key.is_empty() {
        // No row identity to lock: exclusive table lock.
        ctx.storage
            .lock_table(&ctx.txn, table_id, LockMode::Exclusive)?;
    } else {
        ctx.storage
            .lock_table(&ctx.txn, table_id, LockMode::IntentionExclusive)?;
        for row in &full_rows {
            if let Some(kb) = crate::storage::heap::pk_key_bytes(&schema, row) {
                ctx.storage.lock_row(
                    &ctx.txn,
                    table_id,
                    crate::storage::heap::row_key_hash(&kb),
                    LockMode::Exclusive,
                )?;
            }
        }
    }
    let n = full_rows.len() as u64;
    for row in &full_rows {
        ctx.storage.insert_row(&ctx.txn, table_id, row)?;
    }
    ctx.report(TableEffect::Loaded {
        table: table.name.clone(),
        rows: n,
    });
    Ok(StmtOutcome::Affected(n))
}

fn exec_update(
    ctx: &ExecCtx,
    table: &TableName,
    sets: &[(String, crate::sql::ast::Expr)],
    filter: Option<&crate::sql::ast::Expr>,
) -> Result<StmtOutcome> {
    let schema = ctx.resolve_table(table)?.schema().clone();
    let cols: Vec<BoundCol> = schema
        .columns
        .iter()
        .map(|c| BoundCol::new(Some(table.name.clone()), c.name.clone(), c.dtype))
        .collect();
    let binder = Binder::new(ctx, vec![cols]);
    let bfilter = filter.map(|f| binder.bind(f)).transpose()?;
    let bsets: Vec<(usize, BExpr)> = sets
        .iter()
        .map(|(c, e)| {
            let idx = schema
                .col_index(c)
                .ok_or_else(|| Error::Semantic(format!("unknown column {c}")))?;
            Ok((idx, binder.bind(e)?))
        })
        .collect::<Result<_>>()?;

    if table.temp {
        let mut temps = ctx.temps.lock();
        let tt = temps
            .tables
            .get_mut(&table.name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("temp table #{}", table.name)))?;
        let mut n = 0u64;
        for i in 0..tt.rows.len() {
            let keep = match &bfilter {
                Some(f) => truthy(&eval(ctx, &Env::base(&tt.rows[i]), f)?) == Some(true),
                None => true,
            };
            if keep {
                let mut new_row = tt.rows[i].clone();
                for (idx, e) in &bsets {
                    new_row[*idx] = eval(ctx, &Env::base(&tt.rows[i]), e)?
                        .coerce(tt.schema.columns[*idx].dtype)?;
                }
                tt.rows[i] = new_row;
                n += 1;
            }
        }
        return Ok(StmtOutcome::Affected(n));
    }

    let meta = ctx
        .storage
        .catalog
        .resolve(&table.name)
        .ok_or_else(|| Error::NotFound(format!("table {}", table.name)))?;
    let table_id = meta.read().id;

    // Collect matches first (updates relocate rows).
    let conjuncts: Vec<&crate::sql::ast::Expr> =
        filter.map(eval::split_conjuncts).unwrap_or_default();
    let touches_pk = bsets.iter().any(|(i, _)| schema.primary_key.contains(i));
    let path = match access::choose(ctx, &schema, &conjuncts) {
        // The new key's row lock is not taken: lock the table instead.
        access::AccessPath::Point(key) if touches_pk => access::AccessPath::Prefix(key),
        path => path,
    };
    let targets = matching_rows(ctx, table_id, &schema, &path, bfilter.as_ref())?;
    let n = targets.len();
    for (rid, row) in targets {
        let mut new_row = row.clone();
        for (idx, e) in &bsets {
            new_row[*idx] = eval(ctx, &Env::base(&row), e)?.coerce(schema.columns[*idx].dtype)?;
        }
        ctx.storage.update_row(&ctx.txn, table_id, rid, &new_row)?;
    }
    Ok(StmtOutcome::Affected(n as u64))
}

/// Write-lock the rows `path` reaches and return those `filter` accepts.
fn matching_rows(
    ctx: &ExecCtx,
    table_id: crate::schema::TableId,
    schema: &TableSchema,
    path: &access::AccessPath,
    filter: Option<&BExpr>,
) -> Result<Vec<(crate::storage::RowId, Row)>> {
    let mut targets = Vec::new();
    for item in access::open(ctx, table_id, schema, path, LockMode::Exclusive)? {
        let (rid, row) = item?;
        let keep = match filter {
            Some(f) => truthy(&eval(ctx, &Env::base(&row), f)?) == Some(true),
            None => true,
        };
        if keep {
            targets.push((rid, row));
        }
    }
    Ok(targets)
}

fn exec_delete(
    ctx: &ExecCtx,
    table: &TableName,
    filter: Option<&crate::sql::ast::Expr>,
) -> Result<StmtOutcome> {
    let schema = ctx.resolve_table(table)?.schema().clone();
    let cols: Vec<BoundCol> = schema
        .columns
        .iter()
        .map(|c| BoundCol::new(Some(table.name.clone()), c.name.clone(), c.dtype))
        .collect();
    let binder = Binder::new(ctx, vec![cols]);
    let bfilter = filter.map(|f| binder.bind(f)).transpose()?;

    if table.temp {
        let mut temps = ctx.temps.lock();
        let tt = temps
            .tables
            .get_mut(&table.name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("temp table #{}", table.name)))?;
        let before = tt.rows.len();
        let mut err = None;
        tt.rows.retain(|row| {
            if err.is_some() {
                return true;
            }
            match &bfilter {
                Some(f) => match eval(ctx, &Env::base(row), f) {
                    Ok(v) => truthy(&v) != Some(true),
                    Err(e) => {
                        err = Some(e);
                        true
                    }
                },
                None => false,
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        return Ok(StmtOutcome::Affected((before - tt.rows.len()) as u64));
    }

    let meta = ctx
        .storage
        .catalog
        .resolve(&table.name)
        .ok_or_else(|| Error::NotFound(format!("table {}", table.name)))?;
    let table_id = meta.read().id;

    let conjuncts: Vec<&crate::sql::ast::Expr> =
        filter.map(eval::split_conjuncts).unwrap_or_default();
    let path = access::choose(ctx, &schema, &conjuncts);
    let targets = matching_rows(ctx, table_id, &schema, &path, bfilter.as_ref())?;
    let n = targets.len();
    for (rid, _) in targets {
        ctx.storage.delete_row(&ctx.txn, table_id, rid)?;
    }
    Ok(StmtOutcome::Affected(n as u64))
}

fn exec_create_table(
    ctx: &ExecCtx,
    table: &TableName,
    columns: &[crate::sql::ast::ColumnDef],
    pk_constraint: &[String],
) -> Result<StmtOutcome> {
    let mut cols = Vec::with_capacity(columns.len());
    let mut pk: Vec<usize> = Vec::new();
    for (i, c) in columns.iter().enumerate() {
        cols.push(crate::schema::Column {
            name: c.name.clone(),
            dtype: c.dtype,
            nullable: !c.not_null,
        });
        if c.primary_key {
            pk.push(i);
        }
    }
    for name in pk_constraint {
        let i = columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::Semantic(format!("unknown PK column {name}")))?;
        if !pk.contains(&i) {
            pk.push(i);
        }
        cols[i].nullable = false;
    }
    let schema = TableSchema {
        name: table.name.clone(),
        columns: cols,
        primary_key: pk,
    };

    if table.temp {
        let mut temps = ctx.temps.lock();
        let key = table.name.to_ascii_lowercase();
        if temps.tables.contains_key(&key) {
            return Err(Error::AlreadyExists(format!("temp table #{}", table.name)));
        }
        temps.tables.insert(
            key,
            TempTable {
                schema,
                rows: Vec::new(),
            },
        );
        return Ok(StmtOutcome::Ok);
    }

    ctx.storage
        .create_table(&mut ctx.effects.lock().ddl, schema)?;
    Ok(StmtOutcome::Ok)
}

fn exec_drop_table(ctx: &ExecCtx, table: &TableName, if_exists: bool) -> Result<StmtOutcome> {
    if table.temp {
        let mut temps = ctx.temps.lock();
        return match temps.tables.remove(&table.name.to_ascii_lowercase()) {
            Some(_) => Ok(StmtOutcome::Ok),
            None if if_exists => Ok(StmtOutcome::Ok),
            None => Err(Error::NotFound(format!("temp table #{}", table.name))),
        };
    }
    match ctx
        .storage
        .drop_table(&mut ctx.effects.lock().ddl, &table.name)
    {
        Ok(()) => {}
        Err(Error::NotFound(_)) if if_exists => {}
        Err(e) => return Err(e),
    }
    ctx.report(TableEffect::Dropped {
        table: table.name.clone(),
    });
    Ok(StmtOutcome::Ok)
}

fn exec_procedure(
    ctx: &ExecCtx,
    name: &str,
    args: &[crate::sql::ast::Expr],
) -> Result<StmtOutcome> {
    if ctx.depth >= 8 {
        return Err(Error::Semantic("procedure nesting too deep".into()));
    }
    let text = ctx
        .storage
        .catalog
        .get_proc(name)
        .ok_or_else(|| Error::NotFound(format!("procedure {name}")))?;
    let Stmt::CreateProc { params, body, .. } = parse_one(&text)? else {
        return Err(Error::Internal("stored procedure text corrupt".into()));
    };
    if args.len() != params.len() {
        return Err(Error::Semantic(format!(
            "procedure {name} expects {} arguments, got {}",
            params.len(),
            args.len()
        )));
    }
    // Evaluate arguments in the caller's context.
    let binder = Binder::new(ctx, vec![Vec::new()]);
    let empty: Row = Vec::new();
    let env = Env::base(&empty);
    let mut bound = HashMap::new();
    for (a, (pname, ptype)) in args.iter().zip(&params) {
        let v = eval(ctx, &env, &binder.bind(a)?)?.coerce(*ptype)?;
        bound.insert(pname.to_ascii_lowercase(), v);
    }
    let sub_ctx = ExecCtx {
        storage: Arc::clone(&ctx.storage),
        txn: Arc::clone(&ctx.txn),
        temps: Arc::clone(&ctx.temps),
        params: Arc::new(bound),
        depth: ctx.depth + 1,
        effects: Arc::clone(&ctx.effects),
    };
    let stmts = parse_statements(&body)?;
    let mut last = StmtOutcome::Ok;
    for s in &stmts {
        last = execute_stmt(&sub_ctx, s)?;
        // A lazy result set inside a procedure must be drained so later
        // statements see consistent state.
        if let StmtOutcome::Rows(rows) = last {
            let schema = rows.schema.clone();
            let collected: Result<Vec<Row>> = rows.collect();
            last = StmtOutcome::Rows(Rows {
                schema,
                source: RowsSource::Materialized(collected?.into_iter()),
            });
        }
    }
    Ok(last)
}

/// Static metadata for a SELECT (the `WHERE 0=1` support surface, also
/// exposed through the wire protocol's describe path).
pub fn describe_select(ctx: &ExecCtx, q: &crate::sql::ast::SelectStmt) -> Result<Vec<Column>> {
    infer_output_schema(ctx, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_into_column_names_dedup() {
        let schema = [
            Column::new("value", DataType::Float),
            Column::new("value", DataType::Float),
            Column::new("", DataType::Int),
            Column::new("order", DataType::Str),
            Column::new("VALUE_2", DataType::Date),
        ];
        let got: Vec<(String, DataType, bool)> = select_into_columns(&schema)
            .into_iter()
            .map(|c| (c.name, c.dtype, c.not_null || c.primary_key))
            .collect();
        let want = [
            ("value", DataType::Float),
            ("value_2", DataType::Float),
            ("c3", DataType::Int),
            ("order", DataType::Str),
            ("VALUE_2_5", DataType::Date),
        ]
        .map(|(n, t)| (n.to_string(), t, false));
        assert_eq!(got, want);
    }
}
