//! SQL tokenizer.
//!
//! Handles the dialect the engine executes: identifiers, integer literals
//! (`-1` included), `?` placeholders, parentheses, commas, `=` and `>=`.
//! Keywords are case-insensitive. Any other character is a typed
//! [`GraphStorageError::Query`].

use mssg_types::{GraphStorageError, Result};

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// Keyword or identifier (keywords are resolved by the parser through
    /// [`Token::keyword_eq`]).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// `?` placeholder, numbered in appearance order from 0.
    Param(usize),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `>=`
    Ge,
}

impl Token {
    /// Case-insensitive keyword comparison for identifiers.
    pub fn keyword_eq(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a statement.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let mut params = 0usize;
    let err = |msg: String| GraphStorageError::Query(msg);
    while i < bytes.len() {
        let start = i;
        i += 1;
        let token = match bytes[start] {
            b' ' | b'\t' | b'\r' | b'\n' => continue,
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b',' => Token::Comma,
            b'=' => Token::Eq,
            b'>' if bytes.get(i) == Some(&b'=') => {
                i += 1;
                Token::Ge
            }
            b'?' => {
                params += 1;
                Token::Param(params - 1)
            }
            c @ (b'-' | b'0'..=b'9') => {
                if c == b'-' && !bytes.get(i).is_some_and(|b| b.is_ascii_digit()) {
                    return Err(err(format!("stray '-' at byte {start}")));
                }
                while bytes.get(i).is_some_and(|b| b.is_ascii_digit()) {
                    i += 1;
                }
                let text = &input[start..i];
                Token::Int(
                    text.parse()
                        .map_err(|_| err(format!("integer literal {text:?} out of range")))?,
                )
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while bytes
                    .get(i)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    i += 1;
                }
                Token::Ident(input[start..i].to_string())
            }
            _ => {
                // Only ASCII has been consumed, so `start` is a char boundary.
                let c = input[start..].chars().next().unwrap_or_default();
                return Err(err(format!("unexpected character {c:?} at byte {start}")));
            }
        };
        out.push(token);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = lex("SELECT data FROM adj WHERE vertex = 42").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks[0].keyword_eq("select"));
        assert_eq!(toks[6], Token::Eq);
        assert_eq!(toks[7], Token::Int(42));
    }

    #[test]
    fn params_numbered_in_order() {
        let toks = lex("INSERT INTO t VALUES (?, ?, ?)").unwrap();
        let params: Vec<usize> = toks
            .iter()
            .filter_map(|t| {
                if let Token::Param(i) = t {
                    Some(*i)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(params, vec![0, 1, 2]);
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a >= b = c").unwrap();
        assert_eq!(toks[1], Token::Ge);
        assert_eq!(toks[3], Token::Eq);
    }

    #[test]
    fn negative_numbers() {
        let toks = lex("VALUES (-17)").unwrap();
        assert!(toks.contains(&Token::Int(-17)));
    }

    #[test]
    fn errors() {
        for bad in [
            "a @ b",
            "- 5",
            "99999999999999999999",
            "a > b",
            "a < b",
            "'text'",
            "x'00'",
            "SELECT *",
            "SELECT a;",
            "é",
        ] {
            assert!(
                matches!(lex(bad), Err(GraphStorageError::Query(_))),
                "{bad:?} must be a typed query error"
            );
        }
    }

    #[test]
    fn multibyte_character_is_named_whole() {
        let err = lex("a = ñ").unwrap_err();
        assert!(err.to_string().contains('ñ'), "{err}");
    }

    #[test]
    fn case_insensitive_keywords() {
        let toks = lex("select From WHERE").unwrap();
        assert!(toks[0].keyword_eq("SELECT"));
        assert!(toks[1].keyword_eq("from"));
        assert!(toks[2].keyword_eq("Where"));
    }
}
