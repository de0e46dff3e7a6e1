//! Planner and executor — the [`Database`] façade.
//!
//! Every call to [`Database::execute`] runs the full relational path the
//! thesis charges MySQL for: lex → parse → plan → execute. The planner is
//! deliberately simple but honest:
//!
//! - If the statement's equality predicates cover a *prefix* of the primary
//!   key, the executor does a primary-key prefix scan (B-tree range over the
//!   encoded key prefix), then fetches each row from the heap — the classic
//!   "index then bookmark lookup" double hop.
//! - Otherwise it falls back to a full heap scan.
//!
//! Every predicate is then evaluated on each fetched row. An `UPDATE`
//! deletes the row's primary-key entry and inserts it again, as a row that
//! moved must be re-pointed.

use crate::ast::{CmpOp, Predicate, Scalar, Statement};
use crate::catalog::{Catalog, TableDef};
use crate::heap::{HeapFile, RowId, DEFAULT_PAGE_SIZE};
use crate::parser::parse;
use crate::value::{decode_row, encode_row, Value};
use kvdb::{KvOptions, KvStore};
use mssg_types::{GraphStorageError, Result};
use simio::IoStats;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Result of a statement: the projected column's values and/or an
/// affected-row count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// The selected column's value in each result row.
    pub values: Vec<Value>,
    /// Rows inserted / updated.
    pub rows_affected: u64,
}

/// A mini-SQL database rooted in a directory, holding one table.
///
/// ```
/// use minisql::{Database, Value};
/// use mssg_types::GraphStorageError;
/// use simio::IoStats;
/// let dir = std::env::temp_dir().join("minisql-doc");
/// let _ = std::fs::remove_dir_all(&dir);
///
/// let mut db = Database::open(&dir, IoStats::new()).unwrap();
/// db.execute("CREATE TABLE t (a BIGINT, b BLOB, PRIMARY KEY (a))", &[]).unwrap();
/// db.execute("INSERT INTO t VALUES (2, ?)", &[Value::Blob(b"two".to_vec())])
///     .unwrap();
/// let rs = db.execute("SELECT b FROM t WHERE a = 2", &[]).unwrap();
/// assert_eq!(rs.values, vec![Value::Blob(b"two".to_vec())]);
/// // Anything outside the grammar is a typed error.
/// let err = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap_err();
/// assert!(matches!(err, GraphStorageError::Query(_)));
/// ```
pub struct Database {
    dir: PathBuf,
    catalog: Catalog,
    /// The table's files, opened by the first statement that touches it.
    files: Option<TableFiles>,
    stats: Arc<IoStats>,
    /// Statements executed (the SQL-overhead counter).
    statements: u64,
}

/// The table's rows and its primary-key index.
struct TableFiles {
    heap: HeapFile,
    /// Encoded primary key → packed [`RowId`].
    pk: KvStore,
}

/// A predicate with its column resolved and its value bound.
struct Bound {
    column: usize,
    op: CmpOp,
    value: Value,
}

impl Database {
    /// Opens (creating if needed) a database in `dir`.
    pub fn open(dir: &Path, stats: Arc<IoStats>) -> Result<Database> {
        std::fs::create_dir_all(dir)?;
        Ok(Database {
            dir: dir.to_path_buf(),
            catalog: Catalog::open(dir)?,
            files: None,
            stats,
            statements: 0,
        })
    }

    /// Number of statements executed so far.
    pub fn statements_executed(&self) -> u64 {
        self.statements
    }

    /// Parses and executes one statement with positional parameters.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        self.statements += 1;
        match parse(sql)? {
            Statement::CreateTable(def) => {
                self.catalog.create_table(def)?;
                Ok(ResultSet::default())
            }
            Statement::Insert { table, row } => self.exec_insert(&table, &row, params),
            Statement::Select {
                column,
                table,
                predicates,
                order_by,
            } => self.exec_select(&table, &column, &predicates, order_by.as_deref(), params),
            Statement::Update {
                table,
                set,
                predicates,
            } => self.exec_update(&table, &set, &predicates, params),
        }
    }

    /// Flushes the table's heap and index to disk.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(f) = &mut self.files {
            f.heap.flush()?;
            f.pk.flush()?;
        }
        Ok(())
    }

    /// The files of table `def`, opened on first use.
    fn files(&mut self, def: &TableDef) -> Result<&mut TableFiles> {
        if self.files.is_none() {
            let name = def.name.to_ascii_lowercase();
            let (dir, stats) = (&self.dir, &self.stats);
            self.files = Some(TableFiles {
                heap: HeapFile::open(
                    &dir.join(format!("{name}.heap")),
                    DEFAULT_PAGE_SIZE,
                    256,
                    Arc::clone(stats),
                )?,
                pk: KvStore::open(
                    &dir.join(format!("{name}.__pk.idx")),
                    KvOptions::default(),
                    Arc::clone(stats),
                )?,
            });
        }
        Ok(self.files.as_mut().unwrap())
    }

    // ---- DML ----

    fn exec_insert(&mut self, table: &str, row: &[Scalar], params: &[Value]) -> Result<ResultSet> {
        let def = self.catalog.table(table)?.clone();
        if row.len() != def.columns.len() {
            return Err(GraphStorageError::Query(format!(
                "INSERT supplies {} values for {} columns",
                row.len(),
                def.columns.len()
            )));
        }
        let row: Vec<Value> = row
            .iter()
            .map(|s| resolve(s, params))
            .collect::<Result<_>>()?;
        for (v, c) in row.iter().zip(&def.columns) {
            if !v.fits(c.col_type) {
                return Err(GraphStorageError::Query(format!(
                    "value {v} does not fit column {} ({:?})",
                    c.name, c.col_type
                )));
            }
        }
        let key = pk_key(&def, &row)?;
        let files = self.files(&def)?;
        if files.pk.get(&key)?.is_some() {
            return Err(GraphStorageError::Query(format!(
                "duplicate primary key in table {table:?}"
            )));
        }
        let rid = files.heap.insert(&encode_row(&row))?;
        files.pk.put(&key, &rid.pack().to_le_bytes())?;
        Ok(ResultSet {
            values: Vec::new(),
            rows_affected: 1,
        })
    }

    fn exec_select(
        &mut self,
        table: &str,
        column: &str,
        predicates: &[Predicate],
        order_by: Option<&str>,
        params: &[Value],
    ) -> Result<ResultSet> {
        let def = self.catalog.table(table)?.clone();
        let ci = def.column_index(column)?;
        let mut rows: Vec<Vec<Value>> = self
            .find_matches(&def, predicates, params)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        if let Some(ob) = order_by {
            let oi = def.column_index(ob)?;
            rows.sort_by(|a, b| a[oi].cmp(&b[oi]));
        }
        Ok(ResultSet {
            values: rows.into_iter().map(|mut r| r.swap_remove(ci)).collect(),
            rows_affected: 0,
        })
    }

    fn exec_update(
        &mut self,
        table: &str,
        (column, scalar): &(String, Scalar),
        predicates: &[Predicate],
        params: &[Value],
    ) -> Result<ResultSet> {
        let def = self.catalog.table(table)?.clone();
        let (ci, value) = (def.column_index(column)?, resolve(scalar, params)?);
        if !value.fits(def.columns[ci].col_type) {
            return Err(GraphStorageError::Query(format!(
                "value {value} does not fit column {}",
                def.columns[ci].name
            )));
        }
        let matches = self.find_matches(&def, predicates, params)?;
        let files = self.files(&def)?;
        let mut affected = 0u64;
        for (rid, old_row) in matches {
            let mut new_row = old_row.clone();
            new_row[ci] = value.clone();
            files.pk.delete(&pk_key(&def, &old_row)?)?;
            let new_rid = files
                .heap
                .update(rid, &encode_row(&new_row))?
                .ok_or_else(|| GraphStorageError::corrupt("row vanished during update"))?;
            files
                .pk
                .put(&pk_key(&def, &new_row)?, &new_rid.pack().to_le_bytes())?;
            affected += 1;
        }
        Ok(ResultSet {
            values: Vec::new(),
            rows_affected: affected,
        })
    }

    // ---- planning ----

    /// Finds `(rowid, row)` pairs matching the predicate conjunction, through
    /// a primary-key prefix when the equality predicates cover one.
    fn find_matches(
        &mut self,
        def: &TableDef,
        predicates: &[Predicate],
        params: &[Value],
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        let bound: Vec<Bound> = predicates
            .iter()
            .map(|p| bind(def, p, params))
            .collect::<Result<_>>()?;
        // The first equality predicate on each leading key column.
        let mut prefix = Vec::new();
        for &c in &def.primary_key {
            match bound.iter().find(|b| b.column == c && b.op == CmpOp::Eq) {
                Some(b) => b.value.encode_key(&mut prefix)?,
                None => break,
            }
        }
        let files = self.files(def)?;
        let candidates = if prefix.is_empty() {
            files.heap.row_ids()?
        } else {
            let mut rids = Vec::new();
            files.pk.for_each_prefix(&prefix, &mut |_, v| {
                let arr: [u8; 8] = v.as_slice().try_into().unwrap_or([0; 8]);
                rids.push(RowId::unpack(u64::from_le_bytes(arr)));
                true
            })?;
            rids
        };
        let heap = &mut files.heap;
        let mut out = Vec::new();
        for rid in candidates {
            let Some(bytes) = heap.get(rid)? else {
                continue;
            };
            let row = decode_row(&bytes, def.columns.len())?;
            if bound.iter().all(|b| b.op.eval(row[b.column].cmp(&b.value))) {
                out.push((rid, row));
            }
        }
        Ok(out)
    }
}

/// Resolves a predicate's column and value; the value must have the
/// column's type, so every comparison is between values of one type.
fn bind(def: &TableDef, p: &Predicate, params: &[Value]) -> Result<Bound> {
    let column = def.column_index(&p.column)?;
    let value = resolve(&p.rhs, params)?;
    if !value.fits(def.columns[column].col_type) {
        return Err(GraphStorageError::Query(format!(
            "predicate compares column {} with {value}",
            p.column
        )));
    }
    Ok(Bound {
        column,
        op: p.op,
        value,
    })
}

/// The primary-key index key of a row.
fn pk_key(def: &TableDef, row: &[Value]) -> Result<Vec<u8>> {
    let mut key = Vec::with_capacity(def.primary_key.len() * 8);
    for &c in &def.primary_key {
        row[c].encode_key(&mut key)?;
    }
    Ok(key)
}

fn resolve(s: &Scalar, params: &[Value]) -> Result<Value> {
    match s {
        Scalar::Int(i) => Ok(Value::Int(*i)),
        Scalar::Param(i) => params.get(*i).cloned().ok_or_else(|| {
            GraphStorageError::Query(format!(
                "statement uses parameter ?{i} but only {} supplied",
                params.len()
            ))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(tag: &str) -> Database {
        let d = std::env::temp_dir().join(format!("minisql-db-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Database::open(&d, IoStats::new()).unwrap()
    }

    fn setup_adj(db: &mut Database) {
        db.execute(
            "CREATE TABLE adj (vertex BIGINT, chunk BIGINT, data BLOB, \
             PRIMARY KEY (vertex, chunk))",
            &[],
        )
        .unwrap();
    }

    fn blob(b: &[u8]) -> Value {
        Value::Blob(b.to_vec())
    }

    fn ints(rs: ResultSet) -> Vec<i64> {
        rs.values.iter().map(|v| v.as_int().unwrap()).collect()
    }

    #[test]
    fn create_insert_select() {
        let mut d = db("cis");
        setup_adj(&mut d);
        d.execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[9, 9])])
            .unwrap();
        let rs = d
            .execute("SELECT data FROM adj WHERE vertex = 1", &[])
            .unwrap();
        assert_eq!(rs.values, vec![blob(&[9, 9])]);
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut d = db("pk");
        setup_adj(&mut d);
        d.execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[0])])
            .unwrap();
        assert!(d
            .execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[1])])
            .is_err());
        // Different chunk is fine.
        d.execute("INSERT INTO adj VALUES (1, 1, ?)", &[blob(&[1])])
            .unwrap();
    }

    #[test]
    fn pk_prefix_scan() {
        let mut d = db("prefix");
        setup_adj(&mut d);
        for v in 0..5i64 {
            for c in (-1..3i64).rev() {
                d.execute(
                    "INSERT INTO adj VALUES (?, ?, ?)",
                    &[Value::Int(v), Value::Int(c), blob(&[0xaa])],
                )
                .unwrap();
            }
        }
        let rs = d
            .execute(
                "SELECT chunk FROM adj WHERE vertex = ? AND chunk >= 0 ORDER BY chunk",
                &[Value::Int(3)],
            )
            .unwrap();
        assert_eq!(ints(rs), vec![0, 1, 2]);
    }

    #[test]
    fn full_scan_without_a_key_prefix() {
        let mut d = db("fullscan");
        setup_adj(&mut d);
        for v in [4i64, 1, 3] {
            for c in [-1i64, 0] {
                d.execute(
                    "INSERT INTO adj VALUES (?, ?, ?)",
                    &[Value::Int(v), Value::Int(c), blob(&[])],
                )
                .unwrap();
            }
        }
        let rs = d
            .execute(
                "SELECT vertex FROM adj WHERE chunk = -1 ORDER BY vertex",
                &[],
            )
            .unwrap();
        assert_eq!(ints(rs), vec![1, 3, 4]);
        let rs = d
            .execute("SELECT vertex FROM adj WHERE chunk >= 0", &[])
            .unwrap();
        assert_eq!(rs.values.len(), 3);
    }

    #[test]
    fn update_changes_rows() {
        let mut d = db("update");
        setup_adj(&mut d);
        d.execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[0xaa])])
            .unwrap();
        let rs = d
            .execute(
                "UPDATE adj SET data = ? WHERE vertex = ? AND chunk = ?",
                &[blob(&[0xbb, 0xcc]), Value::Int(1), Value::Int(0)],
            )
            .unwrap();
        assert_eq!(rs.rows_affected, 1);
        let rs = d
            .execute("SELECT data FROM adj WHERE vertex = 1 AND chunk = 0", &[])
            .unwrap();
        assert_eq!(rs.values, vec![blob(&[0xbb, 0xcc])]);
    }

    #[test]
    fn update_pk_column_keeps_index_consistent() {
        let mut d = db("updpk");
        setup_adj(&mut d);
        d.execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[0xaa])])
            .unwrap();
        d.execute("UPDATE adj SET vertex = 2 WHERE vertex = 1", &[])
            .unwrap();
        let count = |d: &mut Database, v: i64| {
            d.execute("SELECT data FROM adj WHERE vertex = ?", &[Value::Int(v)])
                .unwrap()
                .values
                .len()
        };
        assert_eq!(count(&mut d, 1), 0);
        assert_eq!(count(&mut d, 2), 1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut d = db("types");
        setup_adj(&mut d);
        assert!(d
            .execute("INSERT INTO adj VALUES (?, 0, ?)", &[blob(&[]), blob(&[])])
            .is_err());
        assert!(d.execute("INSERT INTO adj VALUES (1, 0, 2)", &[]).is_err());
        assert!(d.execute("INSERT INTO adj VALUES (1, 2)", &[]).is_err());
        assert!(d
            .execute("UPDATE adj SET data = 1 WHERE vertex = 1", &[])
            .is_err());
        assert!(d
            .execute("SELECT vertex FROM adj WHERE data = 1", &[])
            .is_err());
    }

    #[test]
    fn missing_param_rejected() {
        let mut d = db("params");
        setup_adj(&mut d);
        assert!(d.execute("INSERT INTO adj VALUES (?, ?, ?)", &[]).is_err());
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("minisql-db-{}-reopen", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = Database::open(&dir, IoStats::new()).unwrap();
            setup_adj(&mut d);
            d.execute("INSERT INTO adj VALUES (5, 0, ?)", &[blob(&[0xde, 0xad])])
                .unwrap();
            d.flush().unwrap();
        }
        let mut d = Database::open(&dir, IoStats::new()).unwrap();
        let rs = d
            .execute("SELECT data FROM adj WHERE vertex = 5", &[])
            .unwrap();
        assert_eq!(rs.values, vec![blob(&[0xde, 0xad])]);
    }

    #[test]
    fn statement_counter() {
        let mut d = db("counter");
        setup_adj(&mut d);
        let _ = d.execute("bad sql", &[]);
        assert_eq!(
            d.statements_executed(),
            2,
            "failed statements still count as parsed"
        );
    }

    /// Every form outside the grammar is a typed query error: never a
    /// panic, and never parsed as something else.
    #[test]
    fn removed_forms_are_typed_query_errors() {
        let mut d = db("edge");
        setup_adj(&mut d);
        d.execute("INSERT INTO adj VALUES (1, 0, ?)", &[blob(&[7])])
            .unwrap();
        let cases = [
            "CREATE INDEX iv ON adj (vertex)",
            "DELETE FROM adj WHERE vertex = 1",
            "SELECT * FROM adj WHERE vertex = 1",
            "SELECT COUNT(*) FROM adj WHERE vertex = 1",
            "SELECT data FROM adj WHERE vertex = 1 LIMIT 1",
            "INSERT INTO adj VALUES (2, 0, ?), (3, 0, ?)",
            "SELECT data FROM adj WHERE vertex < 2",
            "SELECT data FROM adj WHERE vertex <> 2",
            "SELECT data FROM adj WHERE vertex != 2",
            "SELECT data FROM adj WHERE vertex > 0",
            "SELECT data FROM adj WHERE vertex <= 2",
            "INSERT INTO adj VALUES (4, 0, 'text')",
            "INSERT INTO adj VALUES (5, 0, X'00')",
            "INSERT INTO adj VALUES (6, 0, NULL)",
            "SELECT data FROM adj WHERE vertex = NULL",
            "SELECT data FROM adj WHERE vertex = 1;",
            "SELECT vertex, data FROM adj WHERE vertex = 1",
            "SELECT data FROM adj",
            "CREATE TABLE t (a INT, PRIMARY KEY (a))",
        ];
        let params = [blob(&[1]), blob(&[2])];
        for sql in cases {
            match d.execute(sql, &params) {
                Err(GraphStorageError::Query(_)) => {}
                other => panic!("{sql:?} gave {other:?}, not a query error"),
            }
        }
        // Nothing was written or changed.
        let rs = d
            .execute("SELECT data FROM adj WHERE vertex >= 0", &[])
            .unwrap();
        assert_eq!(rs.values, vec![blob(&[7])]);
    }
}
