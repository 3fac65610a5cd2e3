//! The SQL DDL/DML subset: `CREATE TABLE`, `INSERT INTO`, and free-form
//! `CONSTRAINT` statements.
//!
//! ```text
//! script      := statement*
//! statement   := create | insert | constraint
//! create      := "CREATE" "TABLE" name "(" item ("," item)* ")" ";"
//! item        := column | "PRIMARY" "KEY" "(" cols ")"
//!              | "FOREIGN" "KEY" "(" cols ")" "REFERENCES" name "(" cols ")"
//!              | "CHECK" "(" colname op literal ")"
//! column      := name type ["NOT" "NULL"] ["PRIMARY" "KEY"]
//! type        := "INT" | "INTEGER" | "TEXT" | "STRING" | "VARCHAR"
//! insert      := "INSERT" "INTO" name "VALUES" row ("," row)* ";"
//! row         := "(" literal ("," literal)* ")"
//! literal     := integer | 'string' | "NULL"
//! constraint  := "CONSTRAINT" name ":" <form-(1) formula or NOT NULL> ";"
//! ```
//!
//! The formula grammar is [`crate::logic`]'s. Statements execute in two
//! phases — all `CREATE TABLE`s build the schema first — so foreign keys
//! and `CONSTRAINT` statements may reference tables declared later.

use crate::catalog::{Catalog, ColType};
use crate::error::ParseError;
use crate::lexer::{lex, Cursor, Spanned, Token};
use crate::logic::parse_constraint_tokens;
use cqa_constraints::{builders, CmpOp, IcSet};
use cqa_relational::{Instance, Schema, Tuple, Value};
use std::collections::BTreeMap;

#[derive(Debug)]
struct CreateTable {
    name: String,
    columns: Vec<(String, ColType)>,
    not_nulls: Vec<String>,
    primary_key: Vec<String>,
    foreign_keys: Vec<(Vec<String>, String, Vec<String>)>,
    checks: Vec<(String, CmpOp, Value)>,
}

#[derive(Debug)]
enum Stmt {
    Create(CreateTable),
    Insert {
        table: String,
        rows: Vec<Vec<Value>>,
        line: usize,
        column: usize,
    },
    Constraint {
        name: String,
        tokens: Vec<Spanned>,
    },
}

/// Parse and execute a script, producing a [`Catalog`].
pub fn parse_script(input: &str) -> Result<Catalog, ParseError> {
    let mut cur = Cursor::new(lex(input)?);
    let mut stmts: Vec<Stmt> = Vec::new();
    while !cur.at_eof() {
        if cur.at_keyword("create") {
            stmts.push(Stmt::Create(parse_create(&mut cur)?));
        } else if cur.at_keyword("insert") {
            stmts.push(parse_insert(&mut cur)?);
        } else if cur.at_keyword("constraint") {
            cur.next();
            let name = cur.expect_ident()?;
            cur.expect(Token::Colon)?;
            // Collect tokens until `;` for phase-2 parsing.
            let mut tokens: Vec<Spanned> = Vec::new();
            while cur.peek().token != Token::Semi {
                if cur.at_eof() {
                    return Err(cur.error("unterminated CONSTRAINT statement (missing `;`)"));
                }
                tokens.push(cur.next());
            }
            let end = cur.next(); // the semicolon
            tokens.push(Spanned {
                token: Token::Eof,
                line: end.line,
                column: end.column,
            });
            stmts.push(Stmt::Constraint { name, tokens });
        } else {
            return Err(cur.error(format!(
                "expected CREATE, INSERT or CONSTRAINT, found {}",
                cur.peek().token.describe()
            )));
        }
    }

    // Phase 1: schema.
    let mut builder = Schema::builder();
    let mut column_types: BTreeMap<String, Vec<ColType>> = BTreeMap::new();
    for stmt in &stmts {
        if let Stmt::Create(ct) = stmt {
            builder = builder.relation(ct.name.clone(), ct.columns.iter().map(|(n, _)| n.clone()));
            column_types.insert(
                ct.name.clone(),
                ct.columns.iter().map(|(_, t)| *t).collect(),
            );
        }
    }
    let schema = builder
        .finish()
        .map_err(|e| ParseError::new(0, 0, e.to_string()))?
        .into_shared();

    // Phase 2: constraints and data.
    let mut constraints = IcSet::default();
    let mut instance = Instance::empty(schema.clone());
    let err0 = |msg: String| ParseError::new(0, 0, msg);
    for stmt in &stmts {
        match stmt {
            Stmt::Create(ct) => {
                let positions = |cols: &[String]| -> Result<Vec<usize>, ParseError> {
                    let rel = schema.rel_id(&ct.name).expect("declared");
                    cols.iter()
                        .map(|c| {
                            schema.relation(rel).position_of(c).ok_or_else(|| {
                                err0(format!("unknown column `{c}` of `{}`", ct.name))
                            })
                        })
                        .collect()
                };
                for col in &ct.not_nulls {
                    let pos = positions(std::slice::from_ref(col))?[0];
                    constraints.push(
                        builders::not_null(&schema, &ct.name, pos)
                            .map_err(|e| err0(e.to_string()))?,
                    );
                }
                if !ct.primary_key.is_empty() {
                    let key = positions(&ct.primary_key)?;
                    for c in builders::primary_key(&schema, &ct.name, &key)
                        .map_err(|e| err0(e.to_string()))?
                    {
                        constraints.push(c);
                    }
                }
                for (child_cols, parent, parent_cols) in &ct.foreign_keys {
                    let child = positions(child_cols)?;
                    let parent_rel = schema
                        .rel_id(parent)
                        .ok_or_else(|| err0(format!("unknown relation `{parent}`")))?;
                    let parent_positions: Vec<usize> = parent_cols
                        .iter()
                        .map(|c| {
                            schema
                                .relation(parent_rel)
                                .position_of(c)
                                .ok_or_else(|| err0(format!("unknown column `{c}` of `{parent}`")))
                        })
                        .collect::<Result<_, _>>()?;
                    constraints.push(
                        builders::foreign_key(&schema, &ct.name, &child, parent, &parent_positions)
                            .map_err(|e| err0(e.to_string()))?,
                    );
                }
                for (col, op, value) in &ct.checks {
                    let pos = positions(std::slice::from_ref(col))?[0];
                    constraints.push(
                        builders::check_column(&schema, &ct.name, pos, *op, *value)
                            .map_err(|e| err0(e.to_string()))?,
                    );
                }
            }
            Stmt::Insert {
                table,
                rows,
                line,
                column,
            } => {
                let rel = schema.rel_id(table).ok_or_else(|| {
                    ParseError::new(*line, *column, format!("unknown table `{table}`"))
                })?;
                let types = &column_types[table];
                for row in rows {
                    if row.len() != types.len() {
                        return Err(ParseError::new(
                            *line,
                            *column,
                            format!(
                                "INSERT into `{table}` has {} values, table has {} columns",
                                row.len(),
                                types.len()
                            ),
                        ));
                    }
                    for (i, (val, ty)) in row.iter().zip(types).enumerate() {
                        let ok = matches!(
                            (val, ty),
                            (Value::Null, _)
                                | (Value::Int(_), ColType::Int)
                                | (Value::Sym(_), ColType::Text)
                        );
                        if !ok {
                            return Err(ParseError::new(
                                *line,
                                *column,
                                format!(
                                    "column {} of `{table}` is {}, got {}",
                                    i + 1,
                                    ty.ddl_name(),
                                    val.type_name()
                                ),
                            ));
                        }
                    }
                    instance
                        .insert(rel, Tuple::new(row.clone()))
                        .map_err(|e| ParseError::new(*line, *column, e.to_string()))?;
                }
            }
            Stmt::Constraint { name, tokens } => {
                let mut sub = Cursor::new(tokens.clone());
                let con = parse_constraint_tokens(&schema, name, &mut sub)?;
                if !sub.at_eof() {
                    return Err(sub.error("trailing input in CONSTRAINT statement"));
                }
                constraints.push(con);
            }
        }
    }
    Ok(Catalog {
        schema,
        instance,
        constraints,
        column_types,
    })
}

fn parse_create(cur: &mut Cursor) -> Result<CreateTable, ParseError> {
    cur.expect_keyword("create")?;
    cur.expect_keyword("table")?;
    let name = cur.expect_ident()?;
    cur.expect(Token::LParen)?;
    let mut ct = CreateTable {
        name,
        columns: Vec::new(),
        not_nulls: Vec::new(),
        primary_key: Vec::new(),
        foreign_keys: Vec::new(),
        checks: Vec::new(),
    };
    loop {
        if cur.at_keyword("primary") {
            cur.next();
            cur.expect_keyword("key")?;
            if !ct.primary_key.is_empty() {
                return Err(cur.error("duplicate PRIMARY KEY clause"));
            }
            ct.primary_key = parse_name_list(cur)?;
        } else if cur.at_keyword("foreign") {
            cur.next();
            cur.expect_keyword("key")?;
            let child = parse_name_list(cur)?;
            cur.expect_keyword("references")?;
            let parent = cur.expect_ident()?;
            let parent_cols = parse_name_list(cur)?;
            ct.foreign_keys.push((child, parent, parent_cols));
        } else if cur.at_keyword("check") {
            cur.next();
            cur.expect(Token::LParen)?;
            let col = cur.expect_ident()?;
            let op = super::logic::parse_op(cur)?;
            let value = parse_literal(cur)?;
            if value.is_null() {
                return Err(cur.error("CHECK against NULL is not meaningful; use NOT NULL"));
            }
            cur.expect(Token::RParen)?;
            ct.checks.push((col, op, value));
        } else {
            // column definition
            let col = cur.expect_ident()?;
            let ty = cur.expect_ident()?;
            let ty = match ty.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" => ColType::Int,
                "TEXT" | "STRING" | "VARCHAR" => ColType::Text,
                other => return Err(cur.error(format!("unknown column type `{other}`"))),
            };
            ct.columns.push((col.clone(), ty));
            loop {
                if cur.at_keyword("not") {
                    cur.next();
                    cur.expect_keyword("null")?;
                    ct.not_nulls.push(col.clone());
                } else if cur.at_keyword("primary") {
                    cur.next();
                    cur.expect_keyword("key")?;
                    if !ct.primary_key.is_empty() {
                        return Err(cur.error("duplicate PRIMARY KEY clause"));
                    }
                    ct.primary_key = vec![col.clone()];
                } else {
                    break;
                }
            }
        }
        if cur.eat(&Token::Comma) {
            continue;
        }
        cur.expect(Token::RParen)?;
        break;
    }
    cur.expect(Token::Semi)?;
    if ct.columns.is_empty() {
        return Err(cur.error("table needs at least one column"));
    }
    Ok(ct)
}

fn parse_name_list(cur: &mut Cursor) -> Result<Vec<String>, ParseError> {
    cur.expect(Token::LParen)?;
    let mut names = vec![cur.expect_ident()?];
    while cur.eat(&Token::Comma) {
        names.push(cur.expect_ident()?);
    }
    cur.expect(Token::RParen)?;
    Ok(names)
}

fn parse_literal(cur: &mut Cursor) -> Result<Value, ParseError> {
    match cur.peek().token.clone() {
        Token::Int(v) => {
            cur.next();
            Ok(Value::Int(v))
        }
        Token::Str(s) => {
            cur.next();
            Ok(Value::str(s))
        }
        Token::Ident(id) if id.eq_ignore_ascii_case("null") => {
            cur.next();
            Ok(Value::Null)
        }
        other => Err(cur.error(format!("expected a literal, found {}", other.describe()))),
    }
}

fn parse_insert(cur: &mut Cursor) -> Result<Stmt, ParseError> {
    let at = cur.peek().clone();
    cur.expect_keyword("insert")?;
    cur.expect_keyword("into")?;
    let table = cur.expect_ident()?;
    cur.expect_keyword("values")?;
    let mut rows = Vec::new();
    loop {
        cur.expect(Token::LParen)?;
        let mut row = vec![parse_literal(cur)?];
        while cur.eat(&Token::Comma) {
            row.push(parse_literal(cur)?);
        }
        cur.expect(Token::RParen)?;
        rows.push(row);
        if !cur.eat(&Token::Comma) {
            break;
        }
    }
    cur.expect(Token::Semi)?;
    Ok(Stmt::Insert {
        table,
        rows,
        line: at.line,
        column: at.column,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 19's database as DDL.
    const EXAMPLE19: &str = "
        CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
        CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
        INSERT INTO r VALUES ('a', 'b'), ('a', 'c');
        INSERT INTO s VALUES ('e', 'f'), (NULL, 'a');
    ";

    #[test]
    fn example19_script_parses() {
        let cat = parse_script(EXAMPLE19).unwrap();
        assert_eq!(cat.schema.len(), 2);
        assert_eq!(cat.instance.len(), 4);
        // PK → 1 FD + 1 NNC; FK → 1 RIC: 3 constraints.
        assert_eq!(cat.constraints.len(), 3);
        assert!(!cat.is_consistent());
    }

    #[test]
    fn repairs_of_parsed_catalog_match_example19() {
        let cat = parse_script(EXAMPLE19).unwrap();
        let reps = cqa_core::repairs(&cat.instance, &cat.constraints, Default::default()).unwrap();
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn table_level_pk_and_check() {
        let cat = parse_script(
            "CREATE TABLE emp (id INT, name TEXT, salary INT,
                PRIMARY KEY (id), CHECK (salary > 100));
             INSERT INTO emp VALUES (32, NULL, 1000), (41, 'Paul', NULL);",
        )
        .unwrap();
        // PK: 2 FDs + 1 NNC; CHECK: 1 → 4 constraints.
        assert_eq!(cat.constraints.len(), 4);
        assert!(cat.is_consistent()); // Example 6 verdict
    }

    #[test]
    fn forward_references_allowed() {
        let cat = parse_script(
            "CREATE TABLE s (v TEXT, FOREIGN KEY (v) REFERENCES r(x));
             CREATE TABLE r (x TEXT, y TEXT);",
        )
        .unwrap();
        assert_eq!(cat.constraints.len(), 1);
    }

    #[test]
    fn constraint_statements() {
        let cat = parse_script(
            "CREATE TABLE p (a TEXT, b TEXT);
             CREATE TABLE q (x TEXT);
             CONSTRAINT incl: p(x, y) -> q(x);
             CONSTRAINT nn: not null p(a);",
        )
        .unwrap();
        assert_eq!(cat.constraints.len(), 2);
        assert!(cat.constraints.constraints()[0].as_ic().is_some());
        assert!(cat.constraints.constraints()[1].as_nnc().is_some());
    }

    #[test]
    fn type_checking_on_insert() {
        let err = parse_script(
            "CREATE TABLE r (x INT);
             INSERT INTO r VALUES ('oops');",
        )
        .unwrap_err();
        assert!(err.message.contains("INT"));
        let err2 = parse_script(
            "CREATE TABLE r (x INT);
             INSERT INTO r VALUES (1, 2);",
        )
        .unwrap_err();
        assert!(err2.message.contains("columns"));
    }

    #[test]
    fn nulls_insert_fine_and_duplicates_collapse() {
        let cat = parse_script(
            "CREATE TABLE r (x INT, y TEXT);
             INSERT INTO r VALUES (1, NULL), (1, NULL);",
        )
        .unwrap();
        assert_eq!(cat.instance.len(), 1); // set semantics (Example 7)
    }

    #[test]
    fn ddl_errors() {
        assert!(parse_script("CREATE TABLE r ();").is_err());
        assert!(parse_script("CREATE TABLE r (x BLOB);").is_err());
        assert!(parse_script("INSERT INTO missing VALUES (1);").is_err());
        assert!(parse_script("CREATE TABLE r (x INT, PRIMARY KEY (zzz));").is_err());
        assert!(
            parse_script("CREATE TABLE r (x INT PRIMARY KEY, y INT, PRIMARY KEY (y));").is_err()
        );
        assert!(parse_script("CONSTRAINT c: p(x) -> false").is_err()); // no `;`
        assert!(parse_script("DROP TABLE r;").is_err());
        assert!(parse_script("CREATE TABLE r (x INT, CHECK (x > NULL));").is_err());
    }
}
