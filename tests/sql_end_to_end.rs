//! End-to-end: SQL scripts through the full pipeline — parse, check,
//! repair (both engines), answer queries consistently.

use cqa::Database;

/// The paper's Example 19 in SQL, driven through every public path.
#[test]
fn example19_full_pipeline() {
    let db = Database::from_script(
        "CREATE TABLE r (x TEXT PRIMARY KEY, y TEXT);
         CREATE TABLE s (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES r(x));
         INSERT INTO r VALUES ('a', 'b'), ('a', 'c');
         INSERT INTO s VALUES ('e', 'f'), (NULL, 'a');",
    )
    .unwrap();
    assert!(!db.is_consistent());
    assert_eq!(db.violations().len(), 3);
    let direct = db.repairs().unwrap();
    let programmatic = db.repairs_via_program().unwrap();
    assert_eq!(direct, programmatic);
    assert_eq!(direct.len(), 4);

    // the Example 21 program text round-trips through the ASP printer
    let program = db.repair_program_text().unwrap();
    assert!(program.contains("r_ts(x0, x1) :- r(x0, x1)."));
    assert!(program.contains(":- r_ta(x0, x1), r_fa(x0, x1)."));

    // consistent answers
    assert_eq!(db.consistent_answers("q(v) :- s(u, v).").unwrap().len(), 1);
    assert_eq!(db.consistent_answers("q(x) :- r(x, y).").unwrap().len(), 1);
    assert!(db
        .consistent_answers("q(x, y) :- r(x, y).")
        .unwrap()
        .is_empty());
    assert!(db.consistent_answer_boolean("b() :- r('a', y).").unwrap());
    assert!(!db.consistent_answer_boolean("b() :- r('a', 'b').").unwrap());
    // A query with answer variables is not boolean: refused, not `no`.
    assert!(matches!(
        db.consistent_answer_boolean("q(x) :- r(x, y)."),
        Err(cqa::Error::Core(cqa::core::CoreError::InvalidQuery(_)))
    ));
}

/// Example 6 as SQL: check constraints and nulls.
#[test]
fn example6_check_constraint_sql() {
    let mut db = Database::from_script(
        "CREATE TABLE emp (id INT, name TEXT, salary INT, CHECK (salary > 100));
         INSERT INTO emp VALUES (32, NULL, 1000), (41, 'Paul', NULL);",
    )
    .unwrap();
    assert!(db.is_consistent());
    db.insert("emp", [cqa::i(32), cqa::null(), cqa::i(50)])
        .unwrap();
    assert!(!db.is_consistent());
    // The repair deletes the bad row.
    let reps = db.repairs().unwrap();
    assert_eq!(reps.len(), 1);
    assert_eq!(reps[0].len(), 2);
}

/// Free-form constraints (form (1)) combined with DDL sugar.
#[test]
fn custom_constraints_and_union_queries() {
    let db = Database::from_script(
        "CREATE TABLE works (person TEXT, dept TEXT);
         CREATE TABLE dept (name TEXT);
         CREATE TABLE manager (person TEXT);
         INSERT INTO works VALUES ('ann', 'cs'), ('bob', 'math');
         INSERT INTO dept VALUES ('cs');
         CONSTRAINT dept_exists: works(p, d) -> dept(d);
         CONSTRAINT managers_work: manager(p) -> exists d: works(p, d);",
    )
    .unwrap();
    assert!(!db.is_consistent()); // math missing from dept
    let reps = db.repairs().unwrap();
    assert_eq!(reps.len(), 2); // delete works(bob,math) or insert dept(math)

    // union query over both repairs: persons certainly employed
    let people = db
        .consistent_answers("p(x) :- works(x, 'cs'). p(x) :- manager(x).")
        .unwrap();
    assert_eq!(people.len(), 1); // ann
}

/// Inserting into the parsed instance then re-checking (mutation path).
#[test]
fn mutation_path() {
    let mut db = Database::from_script("CREATE TABLE t (a TEXT NOT NULL);").unwrap();
    assert!(db.is_consistent());
    db.insert("t", [cqa::null()]).unwrap();
    assert!(!db.is_consistent());
    let reps = db.repairs().unwrap();
    assert_eq!(reps.len(), 1);
    assert!(reps[0].is_empty());
}

/// Larger script: everything at once, exercised through CQA.
#[test]
fn kitchen_sink_script() {
    let db = Database::from_script(
        "
        -- a simple order-management schema
        CREATE TABLE customer (id INT PRIMARY KEY, name TEXT NOT NULL);
        CREATE TABLE product  (sku TEXT PRIMARY KEY, price INT, CHECK (price > 0));
        CREATE TABLE orders   (
            id INT PRIMARY KEY,
            cust INT,
            sku TEXT,
            FOREIGN KEY (cust) REFERENCES customer(id),
            FOREIGN KEY (sku) REFERENCES product(sku)
        );
        INSERT INTO customer VALUES (1, 'Ann'), (2, NULL);       -- NOT NULL breach
        INSERT INTO product  VALUES ('p1', 10), ('p2', -5);      -- CHECK breach
        INSERT INTO orders   VALUES (100, 1, 'p1'), (101, 3, 'p1'), (102, NULL, 'p2');
        ",
    )
    .unwrap();
    assert!(!db.is_consistent());
    // `customer.name NOT NULL` clashes with the orders→customer foreign
    // key (name is existentially quantified in it): an Example-20
    // conflicting set, so the default semantics refuses…
    assert!(matches!(
        db.repairs(),
        Err(cqa::Error::Core(
            cqa::core::CoreError::ConflictingConstraints(_)
        ))
    ));
    // …and Rep_d (deletion-preferring) is the prescribed fallback.
    let db = db.with_config(cqa::prelude::RepairConfig {
        semantics: cqa::prelude::RepairSemantics::DeletionPreferring,
        ..cqa::prelude::RepairConfig::default()
    });
    let reps = db.repairs().unwrap();
    assert!(!reps.is_empty());
    for r in &reps {
        assert!(cqa::constraints::is_consistent(r, db.constraints()));
    }
    // Order 100 links to an existing customer and product in some repairs,
    // but customer 1 / product p1 survive everywhere:
    let sure = db
        .consistent_answers("q(o) :- orders(o, c, s), customer(c, n), product(s, p).")
        .unwrap();
    assert_eq!(sure.len(), 1);
    let order100: Vec<_> = sure.iter().collect();
    assert_eq!(order100[0].get(0), &cqa::i(100));
}
