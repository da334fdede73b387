//! Table schemas and the on-page row encoding.

use bytes::{Buf, BufMut};

use crate::error::{Error, Result};
use crate::types::{DataType, Row, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-insensitive for lookups).
    pub name: String,
    /// Storage type.
    pub dtype: DataType,
    /// Whether NULLs are admitted.
    pub nullable: bool,
}

impl Column {
    /// A nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

/// Identifies a table in the catalog.
pub type TableId = u32;

/// A table schema: ordered columns plus an optional primary key
/// (column indexes) used to maintain a unique ordered index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
    /// Indexes (into `columns`) of the primary-key columns, if any.
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Schema without a primary key.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
        }
    }

    /// Builder: set the primary-key column indexes.
    pub fn with_primary_key(mut self, cols: Vec<usize>) -> Self {
        self.primary_key = cols;
        self
    }

    /// Case-insensitive column lookup.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate and coerce a row against this schema.
    pub fn conform(&self, row: Row) -> Result<Row> {
        if row.len() != self.columns.len() {
            return Err(Error::Semantic(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        row.into_iter()
            .zip(&self.columns)
            .map(|(v, c)| {
                if v.is_null() && !c.nullable {
                    return Err(Error::Semantic(format!(
                        "column {}.{} is NOT NULL",
                        self.name, c.name
                    )));
                }
                v.coerce(c.dtype)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Row wire/page encoding
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

/// Append the binary encoding of `row` to `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.put_u16(row.len() as u16);
    for v in row {
        match v {
            Value::Null => out.put_u8(TAG_NULL),
            Value::Int(i) => {
                out.put_u8(TAG_INT);
                out.put_i64(*i);
            }
            Value::Float(f) => {
                out.put_u8(TAG_FLOAT);
                out.put_f64(*f);
            }
            Value::Str(s) => {
                out.put_u8(TAG_STR);
                out.put_u32(s.len() as u32);
                out.put_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.put_u8(TAG_DATE);
                out.put_i32(*d);
            }
        }
    }
}

/// Decode a row previously produced by [`encode_row`].
pub fn decode_row(mut buf: &[u8]) -> Result<Row> {
    let corrupt = || Error::Corruption {
        device: "data".into(),
        detail: "corrupt row encoding".into(),
    };
    if buf.remaining() < 2 {
        return Err(corrupt());
    }
    let n = buf.get_u16() as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 1 {
            return Err(corrupt());
        }
        let tag = buf.get_u8();
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_INT => {
                if buf.remaining() < 8 {
                    return Err(corrupt());
                }
                Value::Int(buf.get_i64())
            }
            TAG_FLOAT => {
                if buf.remaining() < 8 {
                    return Err(corrupt());
                }
                Value::Float(buf.get_f64())
            }
            TAG_STR => {
                if buf.remaining() < 4 {
                    return Err(corrupt());
                }
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(corrupt());
                }
                let s = String::from_utf8(buf[..len].to_vec()).map_err(|_| corrupt())?;
                buf.advance(len);
                Value::Str(s)
            }
            TAG_DATE => {
                if buf.remaining() < 4 {
                    return Err(corrupt());
                }
                Value::Date(buf.get_i32())
            }
            _ => return Err(corrupt()),
        };
        row.push(v);
    }
    Ok(row)
}

/// Encode a schema (used in the catalog checkpoint and WAL records).
pub fn encode_schema(s: &TableSchema, out: &mut Vec<u8>) {
    put_str(out, &s.name);
    out.put_u16(s.columns.len() as u16);
    for c in &s.columns {
        put_str(out, &c.name);
        out.put_u8(match c.dtype {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
            DataType::Date => 3,
        });
        out.put_u8(c.nullable as u8);
    }
    out.put_u16(s.primary_key.len() as u16);
    for &i in &s.primary_key {
        out.put_u16(i as u16);
    }
}

/// Decode a schema, advancing `buf`.
pub fn decode_schema(buf: &mut &[u8]) -> Result<TableSchema> {
    let name = get_str(buf)?;
    let ncols = checked_u16(buf)? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = get_str(buf)?;
        let dt = match checked_u8(buf)? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            3 => DataType::Date,
            _ => return Err(Error::Storage("bad dtype tag".into())),
        };
        let nullable = checked_u8(buf)? != 0;
        columns.push(Column {
            name: cname,
            dtype: dt,
            nullable,
        });
    }
    let npk = checked_u16(buf)? as usize;
    let mut primary_key = Vec::with_capacity(npk);
    for _ in 0..npk {
        primary_key.push(checked_u16(buf)? as usize);
    }
    Ok(TableSchema {
        name,
        columns,
        primary_key,
    })
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String> {
    let corrupt = || Error::Corruption {
        device: "data".into(),
        detail: "corrupt string encoding".into(),
    };
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(corrupt());
    }
    let s = String::from_utf8(buf[..len].to_vec()).map_err(|_| corrupt())?;
    buf.advance(len);
    Ok(s)
}

fn checked_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(Error::Storage("truncated".into()));
    }
    Ok(buf.get_u16())
}

fn checked_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Storage("truncated".into()));
    }
    Ok(buf.get_u8())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
                Column::new("c", DataType::Float),
                Column::new("d", DataType::Date),
            ],
        )
        .with_primary_key(vec![0])
    }

    #[test]
    fn row_round_trip() {
        let row = vec![
            Value::Int(-7),
            Value::Str("hello world".into()),
            Value::Float(3.25),
            Value::Date(8035),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn row_round_trip_nulls_and_empty_strings() {
        let row = vec![Value::Null, Value::Str(String::new()), Value::Null];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn decode_rejects_truncation() {
        let row = vec![Value::Int(1), Value::Str("abcdef".into())];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(decode_row(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn schema_round_trip() {
        let s = sample_schema();
        let mut buf = Vec::new();
        encode_schema(&s, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_schema(&mut slice).unwrap(), s);
        assert!(slice.is_empty());
    }

    #[test]
    fn conform_coerces_and_validates() {
        let s = sample_schema();
        let row = vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Int(2),
            Value::Str("1992-01-01".into()),
        ];
        let out = s.conform(row).unwrap();
        assert_eq!(out[2], Value::Float(2.0));
        assert_eq!(out[3], Value::Date(8035));
        assert!(s.conform(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn col_index_is_case_insensitive() {
        let s = sample_schema();
        assert_eq!(s.col_index("A"), Some(0));
        assert_eq!(s.col_index("nope"), None);
    }
}
