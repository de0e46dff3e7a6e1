//! Abstract syntax for the supported SQL subset.

use crate::catalog::TableDef;
use std::cmp::Ordering;

/// A parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ..., PRIMARY KEY (col, ...))`
    CreateTable(TableDef),
    /// `INSERT INTO table VALUES (expr, ...)`
    Insert {
        /// Target table.
        table: String,
        /// One literal/placeholder expression per column.
        row: Vec<Scalar>,
    },
    /// `SELECT col FROM table WHERE conj [ORDER BY col]`
    Select {
        /// The projected column.
        column: String,
        /// Source table.
        table: String,
        /// Conjunction of simple predicates.
        predicates: Vec<Predicate>,
        /// Optional ordering column (ascending).
        order_by: Option<String>,
    },
    /// `UPDATE table SET col = expr WHERE conj`
    Update {
        /// Target table.
        table: String,
        /// The assigned column and its new value.
        set: (String, Scalar),
        /// Conjunction of simple predicates.
        predicates: Vec<Predicate>,
    },
}

/// A scalar expression: an integer literal or a `?` placeholder.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// Integer literal.
    Int(i64),
    /// `?` placeholder, resolved from the parameter list at execution.
    Param(usize),
}

/// Comparison operators in predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator over `lhs.cmp(rhs)`.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A simple predicate `column op scalar`.
#[derive(Clone, Debug, PartialEq)]
pub struct Predicate {
    /// Column name on the left.
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand scalar.
    pub rhs: Scalar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_truth_table() {
        use Ordering::*;
        assert!(CmpOp::Eq.eval(Equal) && !CmpOp::Eq.eval(Less) && !CmpOp::Eq.eval(Greater));
        assert!(CmpOp::Ge.eval(Greater) && CmpOp::Ge.eval(Equal) && !CmpOp::Ge.eval(Less));
    }
}
