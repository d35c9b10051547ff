//! SQL lexer.

use jaguar_common::error::{JaguarError, Result};

/// SQL token kinds. Keywords are recognised case-insensitively.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // literals & names
    Ident(String),
    /// An integer's digits. A minus sign is the parser's, which makes
    /// `-9223372036854775808` `i64::MIN`; alone, 2^63 is too large.
    Int(u64),
    Float(f64),
    Str(String),
    /// `X'0A1B'` hex byte-array literal.
    Blob(Vec<u8>),
    // keywords
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    Null,
    True,
    False,
    Create,
    Table,
    Insert,
    Into,
    Values,
    Drop,
    Limit,
    As,
    Delete,
    Update,
    Set,
    Group,
    By,
    Order,
    Asc,
    Desc,
    Having,
    Index,
    On,
    Show,
    Tables,
    Describe,
    Explain,
    Analyze,
    // punctuation & operators
    Star,
    Comma,
    LParen,
    RParen,
    Semi,
    Dot,
    Eq,
    NotEq, // <> or !=
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
    Percent,
    Eof,
}

/// Tokenise SQL text. `--` comments run to end of line.
pub fn lex(src: &str) -> Result<Vec<Tok>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let v: f64 = src[start..i]
                        .parse()
                        .map_err(|e| JaguarError::Parse(format!("bad float: {e}")))?;
                    out.push(Tok::Float(v));
                } else {
                    let v: u64 = src[start..i]
                        .parse()
                        .map_err(|e| JaguarError::Parse(format!("bad integer: {e}")))?;
                    out.push(Tok::Int(v));
                }
            }
            '\'' => {
                // string literal with '' escaping, UTF-8 kept whole: it
                // is split only at ASCII quotes
                i += 1;
                let mut s = Vec::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(JaguarError::Parse("unterminated string".into())),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push(b'\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b);
                            i += 1;
                        }
                    }
                }
                out.push(Tok::Str(
                    String::from_utf8(s).expect("split at ASCII quotes"),
                ));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                // X'..' blob literal?
                if (c == 'x' || c == 'X') && bytes.get(i + 1) == Some(&b'\'') {
                    i += 2;
                    let start = i;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        return Err(JaguarError::Parse("unterminated blob literal".into()));
                    }
                    let hex = &src[start..i];
                    i += 1;
                    if !hex.len().is_multiple_of(2) {
                        return Err(JaguarError::Parse(
                            "blob literal needs an even number of hex digits".into(),
                        ));
                    }
                    let mut blob = Vec::with_capacity(hex.len() / 2);
                    for pair in hex.as_bytes().chunks(2) {
                        let s = std::str::from_utf8(pair).expect("ascii");
                        blob.push(
                            u8::from_str_radix(s, 16).map_err(|_| {
                                JaguarError::Parse(format!("bad hex '{s}' in blob"))
                            })?,
                        );
                    }
                    out.push(Tok::Blob(blob));
                    continue;
                }
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // After a qualifier's dot every word is a name, so a
                // column or `session.<attr>` may be spelled like a keyword.
                if out.last() == Some(&Tok::Dot) {
                    out.push(Tok::Ident(word.to_string()));
                    continue;
                }
                out.push(match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Tok::Select,
                    "FROM" => Tok::From,
                    "WHERE" => Tok::Where,
                    "AND" => Tok::And,
                    "OR" => Tok::Or,
                    "NOT" => Tok::Not,
                    "NULL" => Tok::Null,
                    "TRUE" => Tok::True,
                    "FALSE" => Tok::False,
                    "CREATE" => Tok::Create,
                    "TABLE" => Tok::Table,
                    "INSERT" => Tok::Insert,
                    "INTO" => Tok::Into,
                    "VALUES" => Tok::Values,
                    "DROP" => Tok::Drop,
                    "LIMIT" => Tok::Limit,
                    "AS" => Tok::As,
                    "DELETE" => Tok::Delete,
                    "UPDATE" => Tok::Update,
                    "SET" => Tok::Set,
                    "GROUP" => Tok::Group,
                    "BY" => Tok::By,
                    "ORDER" => Tok::Order,
                    "ASC" => Tok::Asc,
                    "DESC" => Tok::Desc,
                    "HAVING" => Tok::Having,
                    "INDEX" => Tok::Index,
                    "ON" => Tok::On,
                    "SHOW" => Tok::Show,
                    "TABLES" => Tok::Tables,
                    "DESCRIBE" => Tok::Describe,
                    "EXPLAIN" => Tok::Explain,
                    "ANALYZE" => Tok::Analyze,
                    _ => Tok::Ident(word.to_string()),
                });
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '%' => {
                out.push(Tok::Percent);
                i += 1;
            }
            '<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    out.push(Tok::Le);
                    i += 2;
                }
                Some(b'>') => {
                    out.push(Tok::NotEq);
                    i += 2;
                }
                _ => {
                    out.push(Tok::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::NotEq);
                    i += 2;
                } else {
                    return Err(JaguarError::Parse("unexpected '!'".into()));
                }
            }
            other => {
                return Err(JaguarError::Parse(format!(
                    "unexpected character '{other}' in SQL"
                )))
            }
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            lex("select FROM Where").unwrap(),
            vec![Tok::Select, Tok::From, Tok::Where, Tok::Eof]
        );
    }

    #[test]
    fn paper_query_lexes() {
        let toks =
            lex("SELECT udf(R.ByteArray, 0, 10, 0) FROM Rel10000 R WHERE R.id < 10000;").unwrap();
        assert!(toks.contains(&Tok::Ident("udf".into())));
        assert!(toks.contains(&Tok::Dot));
        assert!(toks.contains(&Tok::Lt));
        assert!(toks.contains(&Tok::Semi));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            lex("'it''s'").unwrap(),
            vec![Tok::Str("it's".into()), Tok::Eof]
        );
        assert!(lex("'open").is_err());
        assert_eq!(
            lex("'café'").unwrap(),
            vec![Tok::Str("café".into()), Tok::Eof]
        );
    }

    #[test]
    fn blob_literals() {
        assert_eq!(
            lex("X'0a1B'").unwrap(),
            vec![Tok::Blob(vec![0x0A, 0x1B]), Tok::Eof]
        );
        assert!(lex("X'0'").is_err());
        assert!(lex("X'zz'").is_err());
        assert!(lex("X'00").is_err());
    }

    #[test]
    fn a_word_after_a_dot_is_a_name() {
        assert_eq!(
            lex("s.group").unwrap(),
            vec![
                Tok::Ident("s".into()),
                Tok::Dot,
                Tok::Ident("group".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn x_identifier_still_works() {
        assert_eq!(
            lex("xval").unwrap(),
            vec![Tok::Ident("xval".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            lex("< <= > >= = <> !=").unwrap(),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Eq,
                Tok::NotEq,
                Tok::NotEq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_ignored() {
        assert_eq!(
            lex("select -- the lot\n*").unwrap(),
            vec![Tok::Select, Tok::Star, Tok::Eof]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            lex("1 2.5 10000").unwrap(),
            vec![Tok::Int(1), Tok::Float(2.5), Tok::Int(10000), Tok::Eof]
        );
    }
}
