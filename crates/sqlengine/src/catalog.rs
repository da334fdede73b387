//! The catalog: durable table metadata, page lists, and stored procedures.
//!
//! The catalog object itself is volatile (rebuilt at recovery); durability
//! comes from checkpoint snapshots plus redo of DDL / page-allocation log
//! records. Table names are case-insensitive (stored lowercased).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::schema::{decode_schema, encode_schema, get_str, put_str, TableId, TableSchema};
use crate::storage::disk::PageId;

/// Metadata for one table: schema plus its heap page list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Catalog-assigned id.
    pub id: TableId,
    /// The table's schema.
    pub schema: TableSchema,
    /// Heap pages, in allocation order.
    pub pages: Vec<PageId>,
}

struct CatInner {
    tables: HashMap<TableId, Arc<RwLock<TableMeta>>>,
    by_name: HashMap<String, TableId>,
    procs: HashMap<String, String>,
    next_table_id: TableId,
}

/// The catalog. Cheap to share (`Arc<Catalog>`); internally locked.
pub struct Catalog {
    inner: RwLock<CatInner>,
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog {
            inner: RwLock::new(CatInner {
                tables: HashMap::new(),
                by_name: HashMap::new(),
                procs: HashMap::new(),
                next_table_id: 1,
            }),
        }
    }

    /// Create a table, assigning a fresh id.
    pub fn create_table(&self, schema: TableSchema) -> Result<TableId> {
        let mut inner = self.inner.write();
        let key = norm(&schema.name);
        if inner.by_name.contains_key(&key) {
            return Err(Error::AlreadyExists(format!("table {}", schema.name)));
        }
        let id = inner.next_table_id;
        inner.next_table_id += 1;
        inner.by_name.insert(key, id);
        inner.tables.insert(
            id,
            Arc::new(RwLock::new(TableMeta {
                id,
                schema,
                pages: Vec::new(),
            })),
        );
        Ok(id)
    }

    /// Redo path: recreate a table under a known id. Idempotent.
    pub fn create_table_with_id(&self, id: TableId, schema: TableSchema) {
        let mut inner = self.inner.write();
        let key = norm(&schema.name);
        if inner.tables.contains_key(&id) {
            return;
        }
        inner.next_table_id = inner.next_table_id.max(id + 1);
        inner.by_name.insert(key, id);
        inner.tables.insert(
            id,
            Arc::new(RwLock::new(TableMeta {
                id,
                schema,
                pages: Vec::new(),
            })),
        );
    }

    /// Drop a table by id.
    pub fn drop_table(&self, id: TableId) -> Result<()> {
        let mut inner = self.inner.write();
        let meta = inner
            .tables
            .remove(&id)
            .ok_or_else(|| Error::NotFound(format!("table id {id}")))?;
        let name = norm(&meta.read().schema.name);
        inner.by_name.remove(&name);
        Ok(())
    }

    /// Redo path: drop-if-exists.
    pub fn drop_table_if_exists(&self, id: TableId) {
        let _ = self.drop_table(id);
    }

    /// Look up a table by (case-insensitive) name.
    pub fn resolve(&self, name: &str) -> Option<Arc<RwLock<TableMeta>>> {
        let inner = self.inner.read();
        let id = *inner.by_name.get(&norm(name))?;
        inner.tables.get(&id).cloned()
    }

    /// Look up a table by id.
    pub fn get(&self, id: TableId) -> Option<Arc<RwLock<TableMeta>>> {
        self.inner.read().tables.get(&id).cloned()
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> Vec<String> {
        self.inner
            .read()
            .tables
            .values()
            .map(|t| t.read().schema.name.clone())
            .collect()
    }

    /// Every page some table's heap owns.
    pub fn owned_pages(&self) -> HashSet<PageId> {
        self.inner
            .read()
            .tables
            .values()
            .flat_map(|t| t.read().pages.clone())
            .collect()
    }

    /// Append a page to a table's heap. Idempotent (redo may replay).
    pub fn add_page(&self, table: TableId, page: PageId) -> Result<()> {
        let meta = self
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let mut m = meta.write();
        if !m.pages.contains(&page) {
            m.pages.push(page);
        }
        Ok(())
    }

    // -- stored procedures ---------------------------------------------------

    /// Store a procedure's text.
    pub fn create_proc(&self, name: &str, body: &str, replace: bool) -> Result<()> {
        let mut inner = self.inner.write();
        let key = norm(name);
        if !replace && inner.procs.contains_key(&key) {
            return Err(Error::AlreadyExists(format!("procedure {name}")));
        }
        inner.procs.insert(key, body.to_string());
        Ok(())
    }

    /// Remove a procedure.
    pub fn drop_proc(&self, name: &str) -> Result<()> {
        self.inner
            .write()
            .procs
            .remove(&norm(name))
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("procedure {name}")))
    }

    /// Fetch a procedure's stored text.
    pub fn get_proc(&self, name: &str) -> Option<String> {
        self.inner.read().procs.get(&norm(name)).cloned()
    }

    // -- checkpoint snapshot -------------------------------------------------

    /// Serialize the full catalog for a checkpoint record.
    pub fn snapshot(&self) -> Vec<u8> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        out.put_u32(inner.next_table_id);
        out.put_u32(inner.tables.len() as u32);
        let mut ids: Vec<_> = inner.tables.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let meta = inner.tables[&id].read();
            out.put_u32(meta.id);
            encode_schema(&meta.schema, &mut out);
            out.put_u32(meta.pages.len() as u32);
            for p in &meta.pages {
                out.put_u32(*p);
            }
        }
        out.put_u32(inner.procs.len() as u32);
        let mut names: Vec<_> = inner.procs.keys().cloned().collect();
        names.sort();
        for n in names {
            put_str(&mut out, &n);
            put_str(&mut out, &inner.procs[&n]);
        }
        out
    }

    /// Rebuild a catalog from a checkpoint snapshot.
    pub fn restore(bytes: &[u8]) -> Result<Catalog> {
        let corrupt = || Error::Corruption {
            device: "wal".into(),
            detail: "corrupt catalog snapshot".into(),
        };
        let mut buf = bytes;
        if buf.remaining() < 8 {
            return Err(corrupt());
        }
        let next_table_id = buf.get_u32();
        let ntables = buf.get_u32() as usize;
        let mut tables = HashMap::new();
        let mut by_name = HashMap::new();
        for _ in 0..ntables {
            if buf.remaining() < 4 {
                return Err(corrupt());
            }
            let id = buf.get_u32();
            let schema = decode_schema(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(corrupt());
            }
            let npages = buf.get_u32() as usize;
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                if buf.remaining() < 4 {
                    return Err(corrupt());
                }
                pages.push(buf.get_u32());
            }
            by_name.insert(norm(&schema.name), id);
            tables.insert(id, Arc::new(RwLock::new(TableMeta { id, schema, pages })));
        }
        if buf.remaining() < 4 {
            return Err(corrupt());
        }
        let nprocs = buf.get_u32() as usize;
        let mut procs = HashMap::new();
        for _ in 0..nprocs {
            let name = get_str(&mut buf)?;
            let body = get_str(&mut buf)?;
            procs.insert(name, body);
        }
        Ok(Catalog {
            inner: RwLock::new(CatInner {
                tables,
                by_name,
                procs,
                next_table_id,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Str),
            ],
        )
        .with_primary_key(vec![0])
    }

    #[test]
    fn create_resolve_drop() {
        let cat = Catalog::new();
        let id = cat.create_table(schema("Orders")).unwrap();
        assert!(cat.resolve("ORDERS").is_some());
        assert!(cat.resolve("orders").is_some());
        assert_eq!(cat.resolve("orders").unwrap().read().id, id);
        assert!(cat.create_table(schema("orders")).is_err());
        cat.drop_table(id).unwrap();
        assert!(cat.resolve("orders").is_none());
        assert!(cat.drop_table(id).is_err());
    }

    #[test]
    fn ids_are_unique_after_restore() {
        let cat = Catalog::new();
        let a = cat.create_table(schema("a")).unwrap();
        let snap = cat.snapshot();
        let cat2 = Catalog::restore(&snap).unwrap();
        let b = cat2.create_table(schema("b")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn add_page_idempotent() {
        let cat = Catalog::new();
        let id = cat.create_table(schema("t")).unwrap();
        cat.add_page(id, 7).unwrap();
        cat.add_page(id, 7).unwrap();
        cat.add_page(id, 9).unwrap();
        assert_eq!(cat.get(id).unwrap().read().pages, vec![7, 9]);
    }

    #[test]
    fn snapshot_round_trip() {
        let cat = Catalog::new();
        let id1 = cat.create_table(schema("t1")).unwrap();
        let id2 = cat.create_table(schema("t2")).unwrap();
        cat.add_page(id1, 3).unwrap();
        cat.add_page(id2, 4).unwrap();
        cat.create_proc("p", "SELECT 1", false).unwrap();

        let snap = cat.snapshot();
        let back = Catalog::restore(&snap).unwrap();
        assert_eq!(
            *back.get(id1).unwrap().read(),
            *cat.get(id1).unwrap().read()
        );
        assert_eq!(
            *back.get(id2).unwrap().read(),
            *cat.get(id2).unwrap().read()
        );
        assert_eq!(back.get_proc("P").unwrap(), "SELECT 1");
    }

    #[test]
    fn create_with_id_idempotent() {
        let cat = Catalog::new();
        cat.create_table_with_id(5, schema("x"));
        cat.create_table_with_id(5, schema("x"));
        assert_eq!(cat.resolve("x").unwrap().read().id, 5);
        // Fresh ids skip past replayed ones.
        let id = cat.create_table(schema("y")).unwrap();
        assert!(id > 5);
    }

    #[test]
    fn proc_lifecycle() {
        let cat = Catalog::new();
        cat.create_proc("advance", "body1", false).unwrap();
        assert!(cat.create_proc("ADVANCE", "body2", false).is_err());
        cat.create_proc("advance", "body2", true).unwrap();
        assert_eq!(cat.get_proc("advance").unwrap(), "body2");
        cat.drop_proc("Advance").unwrap();
        assert!(cat.get_proc("advance").is_none());
    }
}
