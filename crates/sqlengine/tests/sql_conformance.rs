//! SQL conformance tests: many small, targeted checks of dialect
//! semantics — three-valued logic, coercions, aggregates over edge cases,
//! join varieties, subquery strategies, ORDER BY forms, DDL behaviour.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use sqlengine::engine::{Durable, Engine};
use sqlengine::session::SessionId;
use sqlengine::types::Value;
use sqlengine::wal::recovery::RecoveryConfig;
use sqlengine::{Error, Row};

fn engine() -> (Engine, SessionId) {
    let durable = Durable::new(Default::default());
    let e = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    std::mem::forget(durable);
    let sid = e.create_session().unwrap();
    (e, sid)
}

fn q(e: &Engine, sid: SessionId, sql: &str) -> Vec<Row> {
    e.execute_collect(sid, sql)
        .unwrap_or_else(|err| panic!("{sql}: {err}"))
        .1
}

fn one(e: &Engine, sid: SessionId, sql: &str) -> Value {
    q(e, sid, sql)[0][0].clone()
}

fn setup_people(e: &Engine, sid: SessionId) {
    e.execute(
        sid,
        "CREATE TABLE people (id INT PRIMARY KEY, name VARCHAR(20), age INT, city VARCHAR(20))",
    )
    .unwrap();
    e.execute(
        sid,
        "INSERT INTO people VALUES \
         (1, 'ann', 30, 'oslo'), (2, 'bob', NULL, 'rome'), (3, 'cal', 25, 'oslo'), \
         (4, 'dee', 35, NULL), (5, 'eli', 25, 'rome')",
    )
    .unwrap();
}

#[test]
fn null_three_valued_logic() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    // NULL comparisons never match.
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age = NULL").len(),
        0
    );
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age <> NULL").len(),
        0
    );
    // IS NULL / IS NOT NULL.
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age IS NULL").len(),
        1
    );
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age IS NOT NULL").len(),
        4
    );
    // NULL in OR/AND.
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT id FROM people WHERE age > 100 OR city = 'oslo'"
        )
        .len(),
        2
    );
    // NOT(NULL) is NULL → filtered.
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE NOT (age > 0)").len(),
        0
    );
}

#[test]
fn in_list_null_semantics() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    // x IN (..., NULL): unknown unless matched.
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age IN (30, NULL)").len(),
        1
    );
    // x NOT IN (..., NULL): never true.
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age NOT IN (30, NULL)").len(),
        0
    );
}

#[test]
fn between_and_negations() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE age BETWEEN 25 AND 30").len(),
        3
    );
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT id FROM people WHERE age NOT BETWEEN 25 AND 30"
        )
        .len(),
        1 // dee(35); bob's NULL is unknown
    );
}

#[test]
fn arithmetic_and_division_by_zero() {
    let (e, sid) = engine();
    assert_eq!(one(&e, sid, "SELECT 2 + 3 * 4"), Value::Int(14));
    assert_eq!(one(&e, sid, "SELECT (2 + 3) * 4"), Value::Int(20));
    assert_eq!(one(&e, sid, "SELECT 7 % 3"), Value::Int(1));
    assert_eq!(one(&e, sid, "SELECT 1 / 0"), Value::Null);
    assert_eq!(one(&e, sid, "SELECT 10 / 4"), Value::Float(2.5));
    assert_eq!(one(&e, sid, "SELECT -5"), Value::Int(-5));
    assert_eq!(one(&e, sid, "SELECT 1 + NULL"), Value::Null);
}

#[test]
fn string_functions() {
    let (e, sid) = engine();
    assert_eq!(
        one(&e, sid, "SELECT SUBSTRING('hello world', 1, 5)"),
        Value::Str("hello".into())
    );
    assert_eq!(
        one(&e, sid, "SELECT SUBSTRING('hello', 4, 10)"),
        Value::Str("lo".into())
    );
    assert_eq!(
        one(&e, sid, "SELECT UPPER('abC')"),
        Value::Str("ABC".into())
    );
    assert_eq!(
        one(&e, sid, "SELECT LOWER('AbC')"),
        Value::Str("abc".into())
    );
    assert_eq!(one(&e, sid, "SELECT ABS(-7)"), Value::Int(7));
    assert_eq!(one(&e, sid, "SELECT ROUND(3.456, 1)"), Value::Float(3.5));
    assert_eq!(
        one(&e, sid, "SELECT YEAR(DATE '1998-12-01')"),
        Value::Int(1998)
    );
}

#[test]
fn case_expressions() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    let rows = q(
        &e,
        sid,
        "SELECT name, CASE WHEN age >= 30 THEN 'old' WHEN age IS NULL THEN 'unknown' \
         ELSE 'young' END FROM people ORDER BY id",
    );
    let labels: Vec<&str> = rows.iter().map(|r| r[1].as_str().unwrap()).collect();
    assert_eq!(labels, vec!["old", "unknown", "young", "old", "young"]);
    // CASE without ELSE yields NULL.
    assert_eq!(
        one(&e, sid, "SELECT CASE WHEN 0 = 1 THEN 5 END"),
        Value::Null
    );
}

#[test]
fn order_by_forms() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    // By alias.
    let rows = q(
        &e,
        sid,
        "SELECT id, age * 2 AS dbl FROM people WHERE age IS NOT NULL ORDER BY dbl DESC, id",
    );
    assert_eq!(rows[0][0], Value::Int(4));
    // By ordinal.
    let rows = q(&e, sid, "SELECT name, age FROM people ORDER BY 1 DESC");
    assert_eq!(rows[0][0], Value::Str("eli".into()));
    // NULLs sort first ascending.
    let rows = q(&e, sid, "SELECT age FROM people ORDER BY age");
    assert_eq!(rows[0][0], Value::Null);
}

#[test]
fn distinct_and_top_interaction() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    assert_eq!(q(&e, sid, "SELECT DISTINCT city FROM people").len(), 3); // oslo, rome, NULL
    let rows = q(
        &e,
        sid,
        "SELECT DISTINCT TOP 2 age FROM people ORDER BY age DESC",
    );
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Int(35));
}

#[test]
fn aggregates_edge_cases() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    // Aggregates skip NULLs; AVG over non-null ages.
    assert_eq!(one(&e, sid, "SELECT COUNT(age) FROM people"), Value::Int(4));
    assert_eq!(one(&e, sid, "SELECT COUNT(*) FROM people"), Value::Int(5));
    assert_eq!(
        one(&e, sid, "SELECT AVG(age) FROM people"),
        Value::Float((30 + 25 + 35 + 25) as f64 / 4.0)
    );
    assert_eq!(
        one(&e, sid, "SELECT COUNT(DISTINCT age) FROM people"),
        Value::Int(3)
    );
    assert_eq!(
        one(&e, sid, "SELECT MIN(name) FROM people"),
        Value::Str("ann".into())
    );
    // Expression over multiple aggregates.
    assert_eq!(
        one(&e, sid, "SELECT MAX(age) - MIN(age) FROM people"),
        Value::Int(10)
    );
    // Group on nullable column: NULL forms its own group.
    let rows = q(
        &e,
        sid,
        "SELECT city, COUNT(*) FROM people GROUP BY city ORDER BY city",
    );
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], Value::Null);
}

#[test]
fn group_by_expression_and_having_without_aggregate() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    let rows = q(
        &e,
        sid,
        "SELECT age % 2, COUNT(*) FROM people WHERE age IS NOT NULL \
         GROUP BY age % 2 ORDER BY 1",
    );
    assert_eq!(rows.len(), 2);
    // HAVING referencing a group key.
    let rows = q(
        &e,
        sid,
        "SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING city = 'oslo'",
    );
    assert_eq!(rows.len(), 1);
}

#[test]
fn joins_inner_outer_self() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE a (x INT PRIMARY KEY)")
        .unwrap();
    e.execute(sid, "CREATE TABLE b (y INT PRIMARY KEY)")
        .unwrap();
    e.execute(sid, "INSERT INTO a VALUES (1), (2), (3)")
        .unwrap();
    e.execute(sid, "INSERT INTO b VALUES (2), (3), (4)")
        .unwrap();
    let i = Value::Int;
    // Inner join via JOIN..ON.
    assert_eq!(
        q(&e, sid, "SELECT x FROM a JOIN b ON x = y ORDER BY x"),
        [[i(2)], [i(3)]]
    );
    // Left outer.
    let rows = q(
        &e,
        sid,
        "SELECT x, y FROM a LEFT JOIN b ON x = y ORDER BY x",
    );
    assert_eq!(rows, [[i(1), Value::Null], [i(2), i(2)], [i(3), i(3)]]);
    // Cartesian via comma join without predicate: each left row in
    // order, with every right row in order.
    let rows = q(&e, sid, "SELECT x, y FROM a, b");
    let want: Vec<Vec<Value>> = [1, 2, 3]
        .into_iter()
        .flat_map(|x| [2, 3, 4].map(|y| vec![i(x), i(y)]))
        .collect();
    assert_eq!(rows, want);
    // Self join with aliases.
    let rows = q(
        &e,
        sid,
        "SELECT a1.x, a2.x FROM a a1, a a2 WHERE a1.x < a2.x ORDER BY a1.x, a2.x",
    );
    assert_eq!(rows, [[i(1), i(2)], [i(1), i(3)], [i(2), i(3)]]);
}

#[test]
fn non_equi_join_condition() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE lo (v INT)").unwrap();
    e.execute(sid, "CREATE TABLE hi (w INT)").unwrap();
    e.execute(sid, "INSERT INTO lo VALUES (1), (5)").unwrap();
    e.execute(sid, "INSERT INTO hi VALUES (3), (7)").unwrap();
    let i = Value::Int;
    let pairs = [[i(1), i(3)], [i(1), i(7)], [i(5), i(7)]];
    let rows = q(
        &e,
        sid,
        "SELECT v, w FROM lo JOIN hi ON v < w ORDER BY v, w",
    );
    assert_eq!(rows, pairs);
    // Without ORDER BY: each left row in order, with its matches in
    // right-row order.
    assert_eq!(q(&e, sid, "SELECT v, w FROM lo JOIN hi ON v < w"), pairs);
    // A left row that matches nothing is padded where it stands.
    e.execute(sid, "INSERT INTO lo VALUES (9), (2)").unwrap();
    assert_eq!(
        q(&e, sid, "SELECT v, w FROM lo LEFT JOIN hi ON v < w"),
        [
            [i(1), i(3)],
            [i(1), i(7)],
            [i(5), i(7)],
            [i(9), Value::Null],
            [i(2), i(3)],
            [i(2), i(7)],
        ]
    );
}

#[test]
fn subquery_strategies() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE dept (d INT PRIMARY KEY, budget INT)")
        .unwrap();
    e.execute(sid, "CREATE TABLE emp (id INT PRIMARY KEY, d INT, sal INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO dept VALUES (1, 100), (2, 200), (3, 50)")
        .unwrap();
    e.execute(
        sid,
        "INSERT INTO emp VALUES (1, 1, 30), (2, 1, 40), (3, 2, 90), (4, 2, 10)",
    )
    .unwrap();
    // Uncorrelated scalar.
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT d FROM dept WHERE budget > (SELECT AVG(budget) FROM dept)"
        )
        .len(),
        1
    );
    // Correlated scalar aggregate (decorrelated path).
    let rows = q(
        &e,
        sid,
        "SELECT d FROM dept WHERE budget > (SELECT SUM(sal) FROM emp WHERE emp.d = dept.d) \
         ORDER BY d",
    );
    assert_eq!(rows.len(), 2); // dept1: 100>70 ✓, dept2: 200>100 ✓, dept3: NULL → unknown
                               // Correlated EXISTS with a residual predicate referencing the outer row.
    let rows = q(
        &e,
        sid,
        "SELECT d FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE emp.d = dept.d AND sal > budget / 3)",
    );
    assert_eq!(rows.len(), 2); // dept1 (40 > 33.3), dept2 (90 > 66.7)
                               // NOT EXISTS.
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT d FROM dept WHERE NOT EXISTS (SELECT 1 FROM emp WHERE emp.d = dept.d)"
        )
        .len(),
        1 // dept3
    );
    // IN subquery.
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT id FROM emp WHERE d IN (SELECT d FROM dept WHERE budget >= 100)"
        )
        .len(),
        4
    );
    // Derived table + join.
    let rows = q(
        &e,
        sid,
        "SELECT dept.d, t.total FROM dept, \
         (SELECT d AS dd, SUM(sal) AS total FROM emp GROUP BY d) t \
         WHERE dept.d = t.dd ORDER BY dept.d",
    );
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1], Value::Int(70));
}

#[test]
fn qualified_wildcard_and_ambiguity() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE t1 (a INT, shared INT)")
        .unwrap();
    e.execute(sid, "CREATE TABLE t2 (b INT, shared INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO t1 VALUES (1, 10)").unwrap();
    e.execute(sid, "INSERT INTO t2 VALUES (2, 20)").unwrap();
    let (schema, rows) = e.execute_collect(sid, "SELECT t2.* FROM t1, t2").unwrap();
    assert_eq!(schema.len(), 2);
    assert_eq!(rows[0], vec![Value::Int(2), Value::Int(20)]);
    // Ambiguous unqualified reference errors.
    let err = e.execute(sid, "SELECT shared FROM t1, t2");
    assert!(matches!(err, Err(Error::Semantic(_))));
    // Qualified disambiguation works.
    assert_eq!(one(&e, sid, "SELECT t1.shared FROM t1, t2"), Value::Int(10));
}

#[test]
fn coercion_on_insert_and_compare() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE c (f FLOAT, d DATE, s VARCHAR(10))")
        .unwrap();
    e.execute(sid, "INSERT INTO c VALUES (5, '1996-03-04', 'x')")
        .unwrap();
    assert_eq!(one(&e, sid, "SELECT f FROM c"), Value::Float(5.0));
    assert_eq!(
        q(&e, sid, "SELECT s FROM c WHERE d = '1996-03-04'").len(),
        1
    );
    assert_eq!(
        q(
            &e,
            sid,
            "SELECT s FROM c WHERE d >= DATE '1996-01-01' AND d < DATE '1997-01-01'"
        )
        .len(),
        1
    );
    // Date arithmetic.
    assert_eq!(
        one(&e, sid, "SELECT YEAR(d + 365) FROM c"),
        Value::Int(1997)
    );
}

#[test]
fn ddl_semantics() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE d (a INT)").unwrap();
    assert!(matches!(
        e.execute(sid, "CREATE TABLE d (a INT)"),
        Err(Error::AlreadyExists(_))
    ));
    e.execute(sid, "DROP TABLE d").unwrap();
    assert!(matches!(
        e.execute(sid, "DROP TABLE d"),
        Err(Error::NotFound(_))
    ));
    e.execute(sid, "DROP TABLE IF EXISTS d").unwrap();
    // Recreate after drop works and is empty.
    e.execute(sid, "CREATE TABLE d (a INT)").unwrap();
    assert_eq!(q(&e, sid, "SELECT * FROM d").len(), 0);
}

#[test]
fn update_changing_pk_and_not_null() {
    let (e, sid) = engine();
    e.execute(
        sid,
        "CREATE TABLE u (k INT PRIMARY KEY, v VARCHAR(5) NOT NULL)",
    )
    .unwrap();
    e.execute(sid, "INSERT INTO u VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    // PK update via full-scan path.
    e.execute(sid, "UPDATE u SET k = 10 WHERE k = 1").unwrap();
    assert_eq!(q(&e, sid, "SELECT v FROM u WHERE k = 10").len(), 1);
    // NOT NULL enforced.
    assert!(e.execute(sid, "INSERT INTO u VALUES (3, NULL)").is_err());
    // PK collision on update rejected and rolled back.
    assert!(matches!(
        e.execute(sid, "UPDATE u SET k = 2 WHERE k = 10"),
        Err(Error::DuplicateKey(_))
    ));
    assert_eq!(q(&e, sid, "SELECT * FROM u WHERE k = 10").len(), 1);
}

#[test]
fn insert_column_subset_fills_nulls() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE s (a INT, b INT, c VARCHAR(5))")
        .unwrap();
    e.execute(sid, "INSERT INTO s (c, a) VALUES ('x', 1)")
        .unwrap();
    let rows = q(&e, sid, "SELECT a, b, c FROM s");
    assert_eq!(
        rows[0],
        vec![Value::Int(1), Value::Null, Value::Str("x".into())]
    );
}

#[test]
fn like_escaping_and_patterns() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE name LIKE '%o%'").len(),
        1
    );
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE name LIKE '_al'").len(),
        1
    );
    assert_eq!(
        q(&e, sid, "SELECT id FROM people WHERE city NOT LIKE 'o%'").len(),
        2 // rome×2; NULL city is unknown
    );
}

#[test]
fn or_factorization_preserves_semantics() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE l (k INT, grp VARCHAR(2), n INT)")
        .unwrap();
    e.execute(sid, "CREATE TABLE r (k INT, m INT)").unwrap();
    e.execute(
        sid,
        "INSERT INTO l VALUES (1, 'a', 5), (1, 'b', 50), (2, 'a', 7), (3, 'b', 70)",
    )
    .unwrap();
    e.execute(sid, "INSERT INTO r VALUES (1, 1), (2, 2), (3, 3)")
        .unwrap();
    // Common equi-conjunct buried in each OR branch (Q19 shape).
    let rows = q(
        &e,
        sid,
        "SELECT l.k, grp FROM l, r WHERE \
         (l.k = r.k AND grp = 'a' AND n < 10) OR (l.k = r.k AND grp = 'b' AND n > 60) \
         ORDER BY l.k, grp",
    );
    assert_eq!(rows.len(), 3);
}

#[test]
fn stored_procedures_with_params_and_nesting() {
    let (e, sid) = engine();
    e.execute(sid, "CREATE TABLE log (msg VARCHAR(20), n INT)")
        .unwrap();
    e.execute(
        sid,
        "CREATE PROCEDURE note (@m VARCHAR(20), @n INT) AS INSERT INTO log VALUES (@m, @n)",
    )
    .unwrap();
    e.execute(sid, "EXEC note 'hello', 41").unwrap();
    e.execute(sid, "EXEC note @m = 'bye', @n = 42").unwrap();
    assert_eq!(q(&e, sid, "SELECT * FROM log").len(), 2);
    // Nested procedure call.
    e.execute(
        sid,
        "CREATE PROCEDURE outer_p (@x INT) AS EXEC note 'nested', @x",
    )
    .unwrap();
    e.execute(sid, "EXEC outer_p 7").unwrap();
    assert_eq!(
        q(&e, sid, "SELECT n FROM log WHERE msg = 'nested'")[0][0],
        Value::Int(7)
    );
    // OR REPLACE.
    e.execute(
        sid,
        "CREATE OR REPLACE PROCEDURE note (@m VARCHAR(20), @n INT) AS \
         INSERT INTO log VALUES ('replaced', @n)",
    )
    .unwrap();
    e.execute(sid, "EXEC note 'ignored', 1").unwrap();
    assert_eq!(
        q(&e, sid, "SELECT * FROM log WHERE msg = 'replaced'").len(),
        1
    );
    // Wrong arity errors.
    assert!(e.execute(sid, "EXEC note 'x'").is_err());
}

#[test]
fn select_without_from_and_empty_tables() {
    let (e, sid) = engine();
    assert_eq!(one(&e, sid, "SELECT 1 + 1"), Value::Int(2));
    e.execute(sid, "CREATE TABLE empty_t (a INT)").unwrap();
    assert_eq!(q(&e, sid, "SELECT * FROM empty_t").len(), 0);
    assert_eq!(one(&e, sid, "SELECT MAX(a) FROM empty_t"), Value::Null);
    assert_eq!(
        q(&e, sid, "SELECT a, COUNT(*) FROM empty_t GROUP BY a").len(),
        0
    );
}

#[test]
fn top_zero_and_large() {
    let (e, sid) = engine();
    setup_people(&e, sid);
    assert_eq!(q(&e, sid, "SELECT TOP 0 * FROM people").len(), 0);
    assert_eq!(q(&e, sid, "SELECT TOP 99 * FROM people").len(), 5);
    assert_eq!(q(&e, sid, "SELECT * FROM people LIMIT 2").len(), 2);
}

/// Outer rows of the subquery matrix, `(id, k, lim)`: 120 rows, so each
/// cached subquery result is read many times. Every 11th `k` is NULL and
/// `k` 6 and 7 have no inner rows.
fn matrix_outer() -> Vec<(i64, Option<i64>, i64)> {
    (1..=120)
        .map(|id| (id, (id % 11 != 0).then_some(id % 8), id % 5))
        .collect()
}

/// Inner rows, `(id, k, v)`: `k` in 0..=5, every 9th NULL if `null_keys`;
/// `v` with every 10th NULL.
fn matrix_inner(null_keys: bool) -> Vec<(i64, Option<i64>, Option<i64>)> {
    (1..=24)
        .map(|id| {
            let k = (!null_keys || id % 9 != 0).then_some(id % 6);
            (id, k, (id % 10 != 0).then_some(id % 7))
        })
        .collect()
}

fn sql_int(v: Option<i64>) -> String {
    v.map_or("NULL".into(), |x| x.to_string())
}

/// An engine holding `mo` (the outer rows), `mi` (`inner`), `s_plain`
/// {1, 2, 3} and `s_null` {1, 2, NULL}.
fn matrix_engine(inner: &[(i64, Option<i64>, Option<i64>)]) -> (Engine, SessionId) {
    let (e, sid) = engine();
    for ddl in [
        "CREATE TABLE mo (id INT PRIMARY KEY, k INT, lim INT)",
        "CREATE TABLE mi (id INT PRIMARY KEY, k INT, v INT)",
        "CREATE TABLE s_plain (x INT)",
        "CREATE TABLE s_null (x INT)",
        "INSERT INTO s_plain VALUES (1), (2), (3)",
        "INSERT INTO s_null VALUES (1), (2), (NULL)",
    ] {
        e.execute(sid, ddl).unwrap();
    }
    let outer: Vec<String> = matrix_outer()
        .iter()
        .map(|&(id, k, lim)| format!("({id}, {}, {lim})", sql_int(k)))
        .collect();
    e.execute(sid, &format!("INSERT INTO mo VALUES {}", outer.join(", ")))
        .unwrap();
    let inner: Vec<String> = inner
        .iter()
        .map(|&(id, k, v)| format!("({id}, {}, {})", sql_int(k), sql_int(v)))
        .collect();
    e.execute(sid, &format!("INSERT INTO mi VALUES {}", inner.join(", ")))
        .unwrap();
    (e, sid)
}

/// SQL `probe IN set`, three-valued.
fn in_set(probe: Option<i64>, set: &[Option<i64>]) -> Option<bool> {
    if set.is_empty() {
        return Some(false);
    }
    let p = probe?;
    if set.contains(&Some(p)) {
        Some(true)
    } else if set.contains(&None) {
        None
    } else {
        Some(false)
    }
}

fn not3(b: Option<bool>) -> Option<bool> {
    b.map(|x| !x)
}

/// Asserts that `pred` is true, false or unknown on each outer row as
/// `model` says, both as a projected truth value and as a WHERE filter.
fn check_pred(e: &Engine, sid: SessionId, pred: &str, model: impl Fn(i64) -> Option<bool>) {
    let outer = matrix_outer();
    let code = |b: Option<bool>| match b {
        Some(true) => 1,
        Some(false) => 0,
        None => -1,
    };
    let want: Vec<Row> = outer
        .iter()
        .map(|&(id, _, _)| vec![Value::Int(id), Value::Int(code(model(id)))])
        .collect();
    let got = q(
        e,
        sid,
        &format!(
            "SELECT id, CASE WHEN {pred} THEN 1 WHEN NOT ({pred}) THEN 0 ELSE -1 END \
             FROM mo ORDER BY id"
        ),
    );
    assert_eq!(got, want, "truth of {pred}");
    let want_ids: Vec<Row> = outer
        .iter()
        .filter(|&&(id, _, _)| model(id) == Some(true))
        .map(|&(id, _, _)| vec![Value::Int(id)])
        .collect();
    let got_ids = q(
        e,
        sid,
        &format!("SELECT id FROM mo WHERE {pred} ORDER BY id"),
    );
    assert_eq!(got_ids, want_ids, "rows passing {pred}");
}

/// The decorrelated cases, probing `mi` on `mi.k = mo.k`: `EXISTS` and
/// `NOT EXISTS` with and without a residual that reads the outer row, an
/// `IN` whose group may hold a NULL, and scalar aggregates over groups
/// that may be empty.
fn check_decorrelated(e: &Engine, sid: SessionId, inner: &[(i64, Option<i64>, Option<i64>)]) {
    let outer = matrix_outer();
    let row = |id: i64| outer[(id - 1) as usize];
    // Inner rows whose key equals the outer row's (a NULL key equals nothing).
    let group = |id: i64| -> Vec<Option<i64>> {
        let (_, k, _) = row(id);
        inner
            .iter()
            .filter(|&&(_, ik, _)| k.is_some() && ik == k)
            .map(|&(_, _, v)| v)
            .collect()
    };

    let exists = "EXISTS (SELECT 1 FROM mi WHERE mi.k = mo.k)";
    check_pred(e, sid, exists, |id| Some(!group(id).is_empty()));
    check_pred(e, sid, &format!("NOT {exists}"), |id| {
        Some(group(id).is_empty())
    });
    let exists_res = "EXISTS (SELECT 1 FROM mi WHERE mi.k = mo.k AND mi.v > mo.lim)";
    let res_model = |id: i64| {
        let lim = row(id).2;
        group(id).iter().any(|v| v.is_some_and(|v| v > lim))
    };
    check_pred(e, sid, exists_res, |id| Some(res_model(id)));
    check_pred(e, sid, &format!("NOT {exists_res}"), |id| {
        Some(!res_model(id))
    });
    check_pred(
        e,
        sid,
        "lim IN (SELECT v FROM mi WHERE mi.k = mo.k)",
        |id| in_set(Some(row(id).2), &group(id)),
    );

    // An empty group sums to NULL and counts 0.
    let got = q(
        e,
        sid,
        "SELECT id, (SELECT SUM(v) FROM mi WHERE mi.k = mo.k), \
         (SELECT COUNT(*) FROM mi WHERE mi.k = mo.k) FROM mo ORDER BY id",
    );
    let want: Vec<Row> = outer
        .iter()
        .map(|&(id, _, _)| {
            let g = group(id);
            let vals: Vec<i64> = g.iter().flatten().copied().collect();
            let sum = if vals.is_empty() {
                Value::Null
            } else {
                Value::Int(vals.iter().sum())
            };
            vec![Value::Int(id), sum, Value::Int(g.len() as i64)]
        })
        .collect();
    assert_eq!(got, want, "decorrelated scalar aggregates");
}

/// Every subquery strategy (uncorrelated cached, decorrelated probe with
/// and without a residual, memoized fallback) over 120 outer rows, against
/// a row-by-row model of SQL's three-valued semantics.
#[test]
fn subquery_strategy_matrix() {
    let inner = matrix_inner(false);
    let (e, sid) = matrix_engine(&inner);
    let outer = matrix_outer();
    let k = |id: i64| outer[(id - 1) as usize].1;
    let plain = [Some(1), Some(2), Some(3)];
    let with_null = [Some(1), Some(2), None];

    // Uncorrelated: one cached set, NULL probes on every 11th row.
    check_pred(&e, sid, "k IN (SELECT x FROM s_plain)", |id| {
        in_set(k(id), &plain)
    });
    check_pred(&e, sid, "k NOT IN (SELECT x FROM s_plain)", |id| {
        not3(in_set(k(id), &plain))
    });
    check_pred(&e, sid, "k IN (SELECT x FROM s_null)", |id| {
        in_set(k(id), &with_null)
    });
    check_pred(&e, sid, "k NOT IN (SELECT x FROM s_null)", |id| {
        not3(in_set(k(id), &with_null))
    });

    check_decorrelated(&e, sid, &inner);

    // Memoized fallback: no equality with the outer row to probe on.
    check_pred(
        &e,
        sid,
        "EXISTS (SELECT 1 FROM mi WHERE mi.v > mo.lim)",
        |id| {
            let lim = outer[(id - 1) as usize].2;
            Some(inner.iter().any(|&(_, _, v)| v.is_some_and(|v| v > lim)))
        },
    );
    let got = q(
        &e,
        sid,
        "SELECT id, (SELECT MAX(v) FROM mi WHERE mi.k < mo.k) FROM mo ORDER BY id",
    );
    let want: Vec<Row> = outer
        .iter()
        .map(|&(id, k, _)| {
            let max = inner
                .iter()
                .filter(|&&(_, ik, _)| matches!((ik, k), (Some(a), Some(b)) if a < b))
                .filter_map(|&(_, _, v)| v)
                .max();
            vec![Value::Int(id), max.map_or(Value::Null, Value::Int)]
        })
        .collect();
    assert_eq!(got, want, "memoized scalar");
}

/// A NULL correlation key equals nothing, not even an inner NULL key, and
/// an empty `IN` set holds no NULL: `x IN (empty)` is false and
/// `x NOT IN (empty)` true, NULL probes included.
#[test]
fn subquery_null_keys_and_empty_sets() {
    let inner = matrix_inner(true);
    let (e, sid) = matrix_engine(&inner);
    check_decorrelated(&e, sid, &inner);
    check_pred(&e, sid, "k IN (SELECT x FROM s_plain WHERE x > 9)", |_| {
        Some(false)
    });
    check_pred(
        &e,
        sid,
        "k NOT IN (SELECT x FROM s_plain WHERE x > 9)",
        |_| Some(true),
    );
    check_pred(
        &e,
        sid,
        "k IN (SELECT v FROM mi WHERE mi.k = mo.lim + 10)",
        |_| Some(false),
    );
}
