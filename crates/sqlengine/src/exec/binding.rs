//! Name resolution: turning AST expressions into bound expressions with
//! column indexes resolved against relation scopes, plus static type
//! inference (which answers a constant-false query such as `WHERE 0=1`
//! with its columns alone, and types a `SELECT … INTO` target).

#![allow(missing_docs)] // executor-internal IR: names mirror the AST

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::sql::ast::{is_aggregate_name, BinOp, Expr, SelectStmt};
use crate::types::{DataType, Value};

/// One output column of a relation, with its provenance qualifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundCol {
    /// Table alias (or name) this column came from; `None` for computed.
    pub qual: Option<String>,
    pub name: String,
    pub dtype: DataType,
}

impl BoundCol {
    pub fn new(qual: Option<String>, name: impl Into<String>, dtype: DataType) -> Self {
        BoundCol {
            qual,
            name: name.into(),
            dtype,
        }
    }
}

/// A stack of visible scopes; `scopes[0]` is innermost.
pub type Scopes<'a> = [&'a [BoundCol]];

/// Resolve a column reference to (scope depth, column index).
pub fn resolve_col(
    scopes: &Scopes<'_>,
    table: Option<&str>,
    name: &str,
) -> Result<(usize, usize, DataType)> {
    for (depth, scope) in scopes.iter().enumerate() {
        let mut matches = scope.iter().enumerate().filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && match table {
                    Some(t) => c
                        .qual
                        .as_deref()
                        .map(|q| q.eq_ignore_ascii_case(t))
                        .unwrap_or(false),
                    None => true,
                }
        });
        if let Some((idx, col)) = matches.next() {
            if matches.next().is_some() {
                return Err(Error::Semantic(format!("ambiguous column '{name}'")));
            }
            return Ok((depth, idx, col.dtype));
        }
    }
    Err(Error::Semantic(format!(
        "unknown column '{}{}'",
        table.map(|t| format!("{t}.")).unwrap_or_default(),
        name
    )))
}

/// Scalar (non-aggregate) builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    Year,
    Substring,
    Upper,
    Lower,
    Abs,
    Round,
}

impl FuncKind {
    pub fn from_name(name: &str) -> Option<FuncKind> {
        Some(match name.to_ascii_uppercase().as_str() {
            "YEAR" => FuncKind::Year,
            "SUBSTRING" | "SUBSTR" => FuncKind::Substring,
            "UPPER" => FuncKind::Upper,
            "LOWER" => FuncKind::Lower,
            "ABS" => FuncKind::Abs,
            "ROUND" => FuncKind::Round,
            _ => return None,
        })
    }

    pub fn result_type(self, args: &[BExpr]) -> DataType {
        match self {
            FuncKind::Year => DataType::Int,
            FuncKind::Substring | FuncKind::Upper | FuncKind::Lower => DataType::Str,
            FuncKind::Abs | FuncKind::Round => {
                args.first().map(|a| a.dtype()).unwrap_or(DataType::Float)
            }
        }
    }
}

/// Aggregate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

/// A collected aggregate call: kind + bound argument.
#[derive(Debug, Clone)]
pub struct AggCall {
    pub kind: AggKind,
    pub arg: Option<BExpr>,
    pub distinct: bool,
    /// The original AST for structural matching.
    pub source: Expr,
}

impl AggCall {
    pub fn result_type(&self) -> DataType {
        match self.kind {
            AggKind::Count | AggKind::CountStar => DataType::Int,
            AggKind::Avg => DataType::Float,
            AggKind::Sum => match self.arg.as_ref().map(|a| a.dtype()) {
                Some(DataType::Int) => DataType::Int,
                _ => DataType::Float,
            },
            AggKind::Min | AggKind::Max => self
                .arg
                .as_ref()
                .map(|a| a.dtype())
                .unwrap_or(DataType::Float),
        }
    }
}

pub use super::eval::{SubKind, SubPlan, SubStrategy};

/// A bound expression.
#[derive(Debug, Clone)]
pub enum BExpr {
    Literal(Value),
    Col {
        depth: usize,
        idx: usize,
        dtype: DataType,
    },
    Neg(Box<BExpr>),
    Not(Box<BExpr>),
    Binary {
        op: BinOp,
        left: Box<BExpr>,
        right: Box<BExpr>,
    },
    Like {
        expr: Box<BExpr>,
        pattern: Box<BExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<BExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BExpr>,
        low: Box<BExpr>,
        high: Box<BExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BExpr>,
        list: Vec<BExpr>,
        negated: bool,
    },
    InSub {
        expr: Box<BExpr>,
        plan: Arc<SubPlan>,
        negated: bool,
    },
    Exists {
        plan: Arc<SubPlan>,
        negated: bool,
    },
    Scalar {
        plan: Arc<SubPlan>,
    },
    Case {
        branches: Vec<(BExpr, BExpr)>,
        else_expr: Option<Box<BExpr>>,
        dtype: DataType,
    },
    Func {
        func: FuncKind,
        args: Vec<BExpr>,
    },
    /// Reference to computed aggregate `i` (aggregate output phase only).
    AggRef {
        idx: usize,
        dtype: DataType,
    },
    /// Reference to group-key value `i` (aggregate output phase only).
    GroupRef {
        idx: usize,
        dtype: DataType,
    },
}

impl BExpr {
    /// Static result type.
    pub fn dtype(&self) -> DataType {
        match self {
            BExpr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
            BExpr::Col { dtype, .. } => *dtype,
            BExpr::Neg(e) => e.dtype(),
            BExpr::Not(_) => DataType::Int,
            BExpr::Binary { op, left, right } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    DataType::Int
                } else {
                    match (left.dtype(), right.dtype()) {
                        (DataType::Int, DataType::Int) => DataType::Int,
                        (DataType::Date, DataType::Int) | (DataType::Int, DataType::Date) => {
                            DataType::Date
                        }
                        _ => DataType::Float,
                    }
                }
            }
            BExpr::Like { .. }
            | BExpr::IsNull { .. }
            | BExpr::Between { .. }
            | BExpr::InList { .. }
            | BExpr::InSub { .. }
            | BExpr::Exists { .. } => DataType::Int,
            BExpr::Scalar { plan } => infer_select_types(&plan.query)
                .first()
                .copied()
                .unwrap_or(DataType::Float),
            BExpr::Case { dtype, .. } => *dtype,
            BExpr::Func { func, args } => func.result_type(args),
            BExpr::AggRef { dtype, .. } | BExpr::GroupRef { dtype, .. } => *dtype,
        }
    }

    /// Max scope depth referenced (0 = only innermost). Subquery plans
    /// track their own outer references; `Col` nodes here are what matter.
    pub fn max_depth(&self) -> usize {
        let mut m = 0;
        self.walk(&mut |e| {
            if let BExpr::Col { depth, .. } = e {
                m = m.max(*depth);
            }
        });
        m
    }

    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a BExpr)) {
        f(self);
        match self {
            BExpr::Neg(e) | BExpr::Not(e) => e.walk(f),
            BExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            BExpr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            BExpr::IsNull { expr, .. } => expr.walk(f),
            BExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            BExpr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            BExpr::InSub { expr, .. } => expr.walk(f),
            BExpr::Case {
                branches,
                else_expr,
                ..
            } => {
                for (c, r) in branches {
                    c.walk(f);
                    r.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            BExpr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Shift every column reference's depth by `delta` (used when an
    /// expression bound in outer scopes is evaluated from a deeper env).
    pub fn shift_depth(&mut self, delta: isize) {
        match self {
            BExpr::Col { depth, .. } => {
                *depth = (*depth as isize + delta).max(0) as usize;
            }
            BExpr::Neg(e) | BExpr::Not(e) => e.shift_depth(delta),
            BExpr::Binary { left, right, .. } => {
                left.shift_depth(delta);
                right.shift_depth(delta);
            }
            BExpr::Like { expr, pattern, .. } => {
                expr.shift_depth(delta);
                pattern.shift_depth(delta);
            }
            BExpr::IsNull { expr, .. } => expr.shift_depth(delta),
            BExpr::Between {
                expr, low, high, ..
            } => {
                expr.shift_depth(delta);
                low.shift_depth(delta);
                high.shift_depth(delta);
            }
            BExpr::InList { expr, list, .. } => {
                expr.shift_depth(delta);
                for e in list {
                    e.shift_depth(delta);
                }
            }
            BExpr::InSub { expr, .. } => expr.shift_depth(delta),
            BExpr::Case {
                branches,
                else_expr,
                ..
            } => {
                for (c, r) in branches {
                    c.shift_depth(delta);
                    r.shift_depth(delta);
                }
                if let Some(e) = else_expr {
                    e.shift_depth(delta);
                }
            }
            BExpr::Func { args, .. } => {
                for a in args {
                    a.shift_depth(delta);
                }
            }
            _ => {}
        }
    }
}

/// Best-effort static inference of a subquery's output column types used
/// for `Scalar.dtype()` before execution. Falls back to Float.
fn infer_select_types(q: &SelectStmt) -> Vec<DataType> {
    use crate::sql::ast::SelectItem;
    q.items
        .iter()
        .map(|it| match it {
            SelectItem::Expr { expr, .. } => rough_type(expr),
            _ => DataType::Float,
        })
        .collect()
}

fn rough_type(e: &Expr) -> DataType {
    match e {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Func { name, args, .. } => match name.to_ascii_uppercase().as_str() {
            "COUNT" => DataType::Int,
            "SUM" | "AVG" => DataType::Float,
            "MIN" | "MAX" => args.first().map(rough_type).unwrap_or(DataType::Float),
            "YEAR" => DataType::Int,
            "SUBSTRING" | "SUBSTR" | "UPPER" | "LOWER" => DataType::Str,
            _ => DataType::Float,
        },
        Expr::Binary { op, left, .. } if !op.is_comparison() => rough_type(left),
        Expr::Case { branches, .. } => branches
            .first()
            .map(|(_, r)| rough_type(r))
            .unwrap_or(DataType::Float),
        _ => DataType::Float,
    }
}

/// Parse an aggregate `Func` AST node into an [`AggKind`].
pub fn agg_kind(name: &str, star: bool) -> Option<AggKind> {
    if !is_aggregate_name(name) {
        return None;
    }
    Some(match name.to_ascii_uppercase().as_str() {
        "COUNT" if star => AggKind::CountStar,
        "COUNT" => AggKind::Count,
        "SUM" => AggKind::Sum,
        "AVG" => AggKind::Avg,
        "MIN" => AggKind::Min,
        "MAX" => AggKind::Max,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<BoundCol> {
        vec![
            BoundCol::new(Some("t".into()), "a", DataType::Int),
            BoundCol::new(Some("t".into()), "b", DataType::Str),
            BoundCol::new(Some("u".into()), "a", DataType::Float),
        ]
    }

    #[test]
    fn unqualified_unique_resolves() {
        let c = cols();
        let scopes: Vec<&[BoundCol]> = vec![&c];
        let (d, i, t) = resolve_col(&scopes, None, "b").unwrap();
        assert_eq!((d, i, t), (0, 1, DataType::Str));
    }

    #[test]
    fn unqualified_ambiguous_errors() {
        let c = cols();
        let scopes: Vec<&[BoundCol]> = vec![&c];
        assert!(matches!(
            resolve_col(&scopes, None, "a"),
            Err(Error::Semantic(_))
        ));
    }

    #[test]
    fn qualified_resolves() {
        let c = cols();
        let scopes: Vec<&[BoundCol]> = vec![&c];
        let (_, i, t) = resolve_col(&scopes, Some("U"), "A").unwrap();
        assert_eq!((i, t), (2, DataType::Float));
    }

    #[test]
    fn outer_scope_resolution() {
        let inner = vec![BoundCol::new(Some("l".into()), "x", DataType::Int)];
        let outer = cols();
        let scopes: Vec<&[BoundCol]> = vec![&inner, &outer];
        let (d, i, _) = resolve_col(&scopes, Some("t"), "b").unwrap();
        assert_eq!((d, i), (1, 1));
    }

    #[test]
    fn missing_column_errors() {
        let c = cols();
        let scopes: Vec<&[BoundCol]> = vec![&c];
        assert!(resolve_col(&scopes, None, "zzz").is_err());
    }

    #[test]
    fn func_kinds() {
        assert_eq!(FuncKind::from_name("year"), Some(FuncKind::Year));
        assert_eq!(FuncKind::from_name("SUBSTR"), Some(FuncKind::Substring));
        assert_eq!(FuncKind::from_name("nope"), None);
    }

    #[test]
    fn agg_kinds() {
        assert_eq!(agg_kind("count", true), Some(AggKind::CountStar));
        assert_eq!(agg_kind("Count", false), Some(AggKind::Count));
        assert_eq!(agg_kind("sum", false), Some(AggKind::Sum));
        assert_eq!(agg_kind("year", false), None);
    }

    #[test]
    fn shift_depth_works() {
        let mut e = BExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(BExpr::Col {
                depth: 1,
                idx: 0,
                dtype: DataType::Int,
            }),
            right: Box::new(BExpr::Literal(Value::Int(1))),
        };
        e.shift_depth(-1);
        assert_eq!(e.max_depth(), 0);
    }
}
