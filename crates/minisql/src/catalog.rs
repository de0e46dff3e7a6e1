//! Persistent table metadata.
//!
//! A database holds one table, the one the MySQL backend's `adj` needs.
//! Its definition is a small binary file in the database directory,
//! written by `CREATE TABLE`; no file means no table yet. Format
//! (little-endian):
//!
//! ```text
//! [magic u32][name][col_count u32] cols* [pk_count u32] pk_col_idx*
//! col:   [name][type u8]
//! name:  [len u32][utf8 bytes]
//! ```
//!
//! The decoder checks every count against the bytes left before it
//! allocates, and every key column against the column list, so a damaged
//! file is a typed `Corrupt` error.

use crate::value::ColType;
use mssg_types::{GraphStorageError, Result};
use std::path::{Path, PathBuf};

/// "msq2". A catalog in the earlier "msq1" layout, which listed tables
/// and their secondary indexes, is refused as corrupt rather than misread.
const MAGIC: u32 = 0x6d73_7132;

/// A column definition.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub col_type: ColType,
}

/// A table definition.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Primary-key columns as column indices (never empty; all `BIGINT`).
    pub primary_key: Vec<usize>,
}

impl TableDef {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                GraphStorageError::Query(format!("no column {name:?} in table {:?}", self.name))
            })
    }
}

/// The database catalog: its one table, persisted to `catalog.bin`.
#[derive(Debug)]
pub struct Catalog {
    table: Option<TableDef>,
    path: PathBuf,
}

impl Catalog {
    /// Loads the catalog from `dir`, or starts with no table if absent.
    pub fn open(dir: &Path) -> Result<Catalog> {
        let path = dir.join("catalog.bin");
        let table = if path.exists() {
            Some(decode(&std::fs::read(&path)?)?)
        } else {
            None
        };
        Ok(Catalog { table, path })
    }

    /// Looks the table up by name (case-insensitive, like MySQL on most
    /// platforms).
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.table
            .as_ref()
            .filter(|t| t.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| GraphStorageError::Query(format!("no such table {name:?}")))
    }

    /// Registers the database's table and persists it; a database that
    /// already has its table refuses a second.
    pub fn create_table(&mut self, def: TableDef) -> Result<()> {
        if let Some(t) = &self.table {
            return Err(GraphStorageError::Query(format!(
                "table {:?} already exists",
                t.name
            )));
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        write_name(&mut out, &def.name);
        out.extend_from_slice(&(def.columns.len() as u32).to_le_bytes());
        for c in &def.columns {
            write_name(&mut out, &c.name);
            out.push(match c.col_type {
                ColType::BigInt => 0,
                ColType::Blob => 1,
            });
        }
        out.extend_from_slice(&(def.primary_key.len() as u32).to_le_bytes());
        for &i in &def.primary_key {
            out.extend_from_slice(&(i as u32).to_le_bytes());
        }
        // Write-then-rename for crash consistency.
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &self.path)?;
        self.table = Some(def);
        Ok(())
    }
}

fn decode(bytes: &[u8]) -> Result<TableDef> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u32()? != MAGIC {
        return Err(GraphStorageError::corrupt("catalog has bad magic"));
    }
    let name = r.name()?;
    // A column is at least a name length and a type byte.
    let ncols = r.count(5)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.name()?;
        let col_type = match r.u8()? {
            0 => ColType::BigInt,
            1 => ColType::Blob,
            t => {
                return Err(GraphStorageError::corrupt(format!(
                    "catalog column type {t}"
                )))
            }
        };
        columns.push(ColumnDef { name, col_type });
    }
    let nkey = r.count(4)?;
    let mut primary_key = Vec::with_capacity(nkey);
    for _ in 0..nkey {
        let i = r.u32()? as usize;
        if columns.get(i).map(|c| c.col_type) != Some(ColType::BigInt) {
            return Err(GraphStorageError::corrupt(format!(
                "catalog key column {i} of table {name:?} is not a BIGINT column"
            )));
        }
        primary_key.push(i);
    }
    if primary_key.is_empty() {
        return Err(GraphStorageError::corrupt(format!(
            "catalog table {name:?} has no primary key"
        )));
    }
    if r.pos != bytes.len() {
        return Err(GraphStorageError::corrupt("trailing bytes after catalog"));
    }
    Ok(TableDef {
        name,
        columns,
        primary_key,
    })
}

fn write_name(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over the catalog's bytes; running off the end is `Corrupt`.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let s = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| GraphStorageError::corrupt("catalog truncated"))?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A count of items that take at least `min_bytes` each, refused when
    /// the bytes left cannot hold that many.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.bytes.len() - self.pos) / min_bytes {
            return Err(GraphStorageError::corrupt(format!(
                "catalog count {n} exceeds the bytes left"
            )));
        }
        Ok(n)
    }

    fn name(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| GraphStorageError::corrupt("catalog name not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("minisql-cat-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn adj_table() -> TableDef {
        TableDef {
            name: "adj".into(),
            columns: vec![
                ColumnDef {
                    name: "vertex".into(),
                    col_type: ColType::BigInt,
                },
                ColumnDef {
                    name: "chunk".into(),
                    col_type: ColType::BigInt,
                },
                ColumnDef {
                    name: "data".into(),
                    col_type: ColType::Blob,
                },
            ],
            primary_key: vec![0, 1],
        }
    }

    fn is_corrupt(r: Result<Catalog>) -> bool {
        matches!(r, Err(GraphStorageError::Corrupt(_)))
    }

    #[test]
    fn create_and_lookup() {
        let dir = tmpdir("lookup");
        let mut c = Catalog::open(&dir).unwrap();
        c.create_table(adj_table()).unwrap();
        let t = c.table("ADJ").unwrap(); // case-insensitive
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.column_index("Chunk").unwrap(), 1);
        assert!(t.column_index("nope").is_err());
    }

    #[test]
    fn duplicate_and_second_tables_rejected() {
        let dir = tmpdir("dup");
        let mut c = Catalog::open(&dir).unwrap();
        c.create_table(adj_table()).unwrap();
        assert!(c.create_table(adj_table()).is_err());
        let other = TableDef {
            name: "other".into(),
            ..adj_table()
        };
        assert!(c.create_table(other).is_err());
        assert!(c.table("other").is_err());
        assert_eq!(
            Catalog::open(&dir).unwrap().table("adj").unwrap(),
            &adj_table()
        );
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = tmpdir("persist");
        Catalog::open(&dir)
            .unwrap()
            .create_table(adj_table())
            .unwrap();
        let c = Catalog::open(&dir).unwrap();
        assert_eq!(c.table("adj").unwrap(), &adj_table());
    }

    #[test]
    fn missing_table_errors() {
        let dir = tmpdir("missing");
        let mut c = Catalog::open(&dir).unwrap();
        assert!(c.table("ghost").is_err());
        c.create_table(adj_table()).unwrap();
        assert!(c.table("ghost").is_err());
    }

    #[test]
    fn corrupt_catalog_detected() {
        let dir = tmpdir("corrupt");
        std::fs::write(dir.join("catalog.bin"), b"garbage!").unwrap();
        assert!(is_corrupt(Catalog::open(&dir)));
    }

    #[test]
    fn catalog_with_an_index_list_is_refused() {
        // The layout that carried secondary indexes began "msq1".
        let dir = tmpdir("old-magic");
        let mut old = 0x6d73_7131u32.to_le_bytes().to_vec();
        old.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(dir.join("catalog.bin"), old).unwrap();
        assert!(is_corrupt(Catalog::open(&dir)));
    }

    #[test]
    fn damaged_counts_and_keys_are_corrupt_not_a_panic() {
        let dir = tmpdir("damaged");
        Catalog::open(&dir)
            .unwrap()
            .create_table(adj_table())
            .unwrap();
        let good = std::fs::read(dir.join("catalog.bin")).unwrap();
        // Offsets: name length at 4, column count at 11, key count at 45,
        // first key column at 49 (column 2 is the BLOB).
        for (at, word) in [
            (4, u32::MAX),
            (11, u32::MAX),
            (45, u32::MAX),
            (49, 2),
            (45, 0),
        ] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&word.to_le_bytes());
            std::fs::write(dir.join("catalog.bin"), &bad).unwrap();
            assert!(is_corrupt(Catalog::open(&dir)), "word {word} at {at}");
        }
        // Every truncation is corrupt too.
        for len in 0..good.len() {
            std::fs::write(dir.join("catalog.bin"), &good[..len]).unwrap();
            assert!(is_corrupt(Catalog::open(&dir)), "truncated to {len}");
        }
    }
}
