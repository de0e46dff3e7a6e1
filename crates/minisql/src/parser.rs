//! Recursive-descent parser for the supported SQL subset.
//!
//! The grammar is exactly what the `adj` table's statements need:
//!
//! ```text
//! CREATE TABLE name ( col type, ..., PRIMARY KEY ( col, ... ) )
//! INSERT INTO name VALUES ( scalar, ... )
//! SELECT col FROM name WHERE pred [AND pred]* [ORDER BY col]
//! UPDATE name SET col = scalar WHERE pred [AND pred]*
//! type:   BIGINT | BLOB
//! pred:   col = scalar | col >= scalar
//! scalar: integer | ?
//! ```

use crate::ast::{CmpOp, Predicate, Scalar, Statement};
use crate::catalog::{ColumnDef, TableDef};
use crate::lexer::{lex, Token};
use crate::value::ColType;
use mssg_types::{GraphStorageError, Result};

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(p.error("trailing tokens after statement"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn error(&self, msg: &str) -> GraphStorageError {
        GraphStorageError::Query(format!("parse error at token {}: {msg}", self.pos))
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.error("unexpected end of statement"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(self.error(&format!("expected {t:?}, got {got:?}")))
        }
    }

    /// Consumes `t` if it is next.
    fn eat(&mut self, t: &Token) -> bool {
        let found = self.tokens.get(self.pos) == Some(t);
        self.pos += usize::from(found);
        found
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        let got = self.next()?;
        if got.keyword_eq(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword {kw}, got {got:?}")))
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        let found = self.tokens.get(self.pos).is_some_and(|t| t.keyword_eq(kw));
        self.pos += usize::from(found);
        found
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.error(&format!("expected identifier, got {other:?}"))),
        }
    }

    /// `( item, ... )`, at least one item.
    fn parens<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.expect(&Token::LParen)?;
        let mut items = vec![item(self)?];
        while self.eat(&Token::Comma) {
            items.push(item(self)?);
        }
        self.expect(&Token::RParen)?;
        Ok(items)
    }

    fn statement(&mut self) -> Result<Statement> {
        let head = self.next()?;
        if head.keyword_eq("CREATE") {
            self.keyword("TABLE")?;
            self.create_table()
        } else if head.keyword_eq("INSERT") {
            self.keyword("INTO")?;
            let table = self.ident()?;
            self.keyword("VALUES")?;
            let row = self.parens(Self::scalar)?;
            Ok(Statement::Insert { table, row })
        } else if head.keyword_eq("SELECT") {
            let column = self.ident()?;
            self.keyword("FROM")?;
            let table = self.ident()?;
            let predicates = self.where_clause()?;
            let order_by = if self.try_keyword("ORDER") {
                self.keyword("BY")?;
                Some(self.ident()?)
            } else {
                None
            };
            Ok(Statement::Select {
                column,
                table,
                predicates,
                order_by,
            })
        } else if head.keyword_eq("UPDATE") {
            let table = self.ident()?;
            self.keyword("SET")?;
            let column = self.ident()?;
            self.expect(&Token::Eq)?;
            let set = (column, self.scalar()?);
            let predicates = self.where_clause()?;
            Ok(Statement::Update {
                table,
                set,
                predicates,
            })
        } else {
            Err(self.error(&format!("unknown statement head {head:?}")))
        }
    }

    /// The column list ends with the primary key, which every table has:
    /// the engine reaches each row through it.
    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        while !self.try_keyword("PRIMARY") {
            let name = self.ident()?;
            let col_type = self.col_type()?;
            columns.push(ColumnDef { name, col_type });
            self.expect(&Token::Comma)?;
        }
        self.keyword("KEY")?;
        let key_names = self.parens(Self::ident)?;
        self.expect(&Token::RParen)?;
        let mut primary_key = Vec::new();
        for k in &key_names {
            match columns.iter().position(|c| c.name.eq_ignore_ascii_case(k)) {
                Some(i) if columns[i].col_type == ColType::BigInt => primary_key.push(i),
                Some(_) => return Err(self.error(&format!("PRIMARY KEY column {k} not BIGINT"))),
                None => return Err(self.error(&format!("PRIMARY KEY column {k} not declared"))),
            }
        }
        Ok(Statement::CreateTable(TableDef {
            name,
            columns,
            primary_key,
        }))
    }

    fn col_type(&mut self) -> Result<ColType> {
        let t = self.next()?;
        if t.keyword_eq("BIGINT") {
            Ok(ColType::BigInt)
        } else if t.keyword_eq("BLOB") {
            Ok(ColType::Blob)
        } else {
            Err(self.error(&format!("unknown column type {t:?}")))
        }
    }

    /// `WHERE pred (AND pred)*`.
    fn where_clause(&mut self) -> Result<Vec<Predicate>> {
        self.keyword("WHERE")?;
        let mut preds = Vec::new();
        loop {
            let column = self.ident()?;
            let op = match self.next()? {
                Token::Eq => CmpOp::Eq,
                Token::Ge => CmpOp::Ge,
                other => return Err(self.error(&format!("expected = or >=, got {other:?}"))),
            };
            let rhs = self.scalar()?;
            preds.push(Predicate { column, op, rhs });
            if !self.try_keyword("AND") {
                return Ok(preds);
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar> {
        match self.next()? {
            Token::Int(i) => Ok(Scalar::Int(i)),
            Token::Param(i) => Ok(Scalar::Param(i)),
            other => Err(self.error(&format!("expected integer or ?, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_pk() {
        let s = parse(
            "CREATE TABLE adj (vertex BIGINT, chunk BIGINT, data BLOB, \
             PRIMARY KEY (vertex, chunk))",
        )
        .unwrap();
        match s {
            Statement::CreateTable(t) => {
                assert_eq!(t.name, "adj");
                assert_eq!(t.columns.len(), 3);
                assert_eq!(t.columns[2].col_type, ColType::Blob);
                assert_eq!(t.primary_key, vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pk_must_reference_integer_columns() {
        assert!(parse("CREATE TABLE t (a BIGINT, PRIMARY KEY (b))").is_err());
        assert!(parse("CREATE TABLE t (a BLOB, PRIMARY KEY (a))").is_err());
        assert!(parse("CREATE TABLE t (a BIGINT)").is_err());
    }

    #[test]
    fn insert_with_params() {
        let s = parse("INSERT INTO t VALUES (1, ?, -1)").unwrap();
        assert_eq!(
            s,
            Statement::Insert {
                table: "t".into(),
                row: vec![Scalar::Int(1), Scalar::Param(0), Scalar::Int(-1)],
            }
        );
    }

    #[test]
    fn select_where_and_order() {
        let s =
            parse("SELECT data FROM adj WHERE vertex = ? AND chunk >= 0 ORDER BY chunk").unwrap();
        match s {
            Statement::Select {
                column,
                table,
                predicates,
                order_by,
            } => {
                assert_eq!(column, "data");
                assert_eq!(table, "adj");
                assert_eq!(predicates.len(), 2);
                assert_eq!(predicates[0].op, CmpOp::Eq);
                assert_eq!(predicates[1].op, CmpOp::Ge);
                assert_eq!(predicates[1].rhs, Scalar::Int(0));
                assert_eq!(order_by, Some("chunk".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update() {
        let s = parse("UPDATE adj SET data = ? WHERE vertex = 3 AND chunk = 0").unwrap();
        match s {
            Statement::Update {
                set, predicates, ..
            } => {
                assert_eq!(set, ("data".into(), Scalar::Param(0)));
                assert_eq!(predicates.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT a FROM t WHERE a = 1 garbage garbage").is_err());
    }

    #[test]
    fn unknown_statement() {
        assert!(parse("EXPLAIN SELECT 1").is_err());
        assert!(parse("").is_err());
    }
}
