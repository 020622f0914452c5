//! Full-stack DataBlade tests: the paper's EmpDep scenario, the Julie
//! query, index/scan equivalence, DML maintenance, and the Figure 6
//! call sequences — all through SQL.

use grt_blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grt_grtree::GrTreeOptions;
use grt_ids::{Database, DatabaseOptions, Value};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::RStarOptions;
use grt_temporal::{Day, MockClock, Predicate, TimeExtent, TtEnd, VtEnd};
use std::sync::Arc;

fn db_with_clock() -> (Database, MockClock) {
    let clock = MockClock::new(Day::from_ymd(1997, 1, 1).unwrap());
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(
        &db,
        GrTreeAmOptions {
            tree: GrTreeOptions {
                max_entries: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    (db, clock)
}

fn month(m: u32, y: i32) -> Day {
    Day::from_ymd(y, m, 1).unwrap()
}

/// Plays the paper's Table 1 history against a GR-tree-indexed table.
/// Returns the connection.
fn play_empdep(db: &Database, clock: &MockClock) -> grt_ids::engine::Connection {
    let conn = db.connect();
    conn.exec("CREATE TABLE Employees (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec(
        "CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am IN spc",
    )
    .unwrap();
    let ins = |name: &str, dept: &str, extent: &str| {
        conn.exec(&format!(
            "INSERT INTO Employees VALUES ('{name}', '{dept}', '{extent}')"
        ))
        .unwrap();
    };
    // 3/97: Tom's future validity is recorded; Julie joins Sales.
    clock.set(month(3, 1997));
    ins("Tom", "Management", "3/97, UC, 6/97, 8/97");
    ins("Julie", "Sales", "3/97, UC, 3/97, NOW");
    // 4/97: John's (already ended) stint is recorded.
    clock.set(month(4, 1997));
    ins("John", "Advertising", "4/97, UC, 3/97, 5/97");
    // 5/97: Jane joins Sales; Michelle's Management job (true since
    // 3/97) is recorded late.
    clock.set(month(5, 1997));
    ins("Jane", "Sales", "5/97, UC, 5/97, NOW");
    ins("Michelle", "Management", "5/97, UC, 3/97, NOW");
    // 8/97: Tom's tuple is logically deleted, and Julie's is updated
    // (modelled, as in the paper, as a deletion plus an insertion).
    clock.set(month(8, 1997));
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 6/97, 8/97' WHERE Name = 'Tom'",
    )
    .unwrap();
    conn.exec(
        "UPDATE Employees SET Time_Extent = '3/97, 07/31/1997, 3/97, NOW' WHERE Name = 'Julie'",
    )
    .unwrap();
    ins("Julie", "Sales", "8/97, UC, 3/97, 7/97");
    // The paper's reference time.
    clock.set(month(9, 1997));
    conn
}

#[test]
fn empdep_relation_matches_table_1() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    let r = conn
        .exec("SELECT Name, Time_Extent FROM Employees")
        .unwrap();
    assert_eq!(r.rows.len(), 6, "six tuples as in Table 1");
    let mut rendered: Vec<(String, String)> = r
        .rendered
        .iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect();
    rendered.sort();
    // Spot-check the now-relative tuples.
    let julie_open = rendered
        .iter()
        .find(|(n, e)| n == "Julie" && e.contains("UC"))
        .expect("Julie's current tuple");
    assert!(julie_open.1.contains("08/01/1997"), "{julie_open:?}");
    let jane = rendered.iter().find(|(n, _)| n == "Jane").unwrap();
    assert!(jane.1.contains("UC") && jane.1.contains("NOW"), "{jane:?}");
}

#[test]
fn julie_query_returns_empty_with_and_without_index() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // "Who worked in Sales during 7/97 according to the knowledge we
    // had during 5/97?" — the bitemporal point (tt = 5/97, vt = 7/97).
    let q = "Overlaps(Time_Extent, '5/97, 5/97, 7/97, 7/97')";
    let with_index = conn
        .exec(&format!(
            "SELECT Name FROM Employees WHERE {q} AND Department = 'Sales'"
        ))
        .unwrap();
    assert!(
        with_index.rows.is_empty(),
        "the stair shape excludes Julie: {with_index:?}"
    );
    // Force a sequential scan by dropping the index: same (correct)
    // answer, because the strategy function is also a plain UDR.
    conn.exec("DROP INDEX grt_index").unwrap();
    let seq = conn
        .exec(&format!(
            "SELECT Name FROM Employees WHERE {q} AND Department = 'Sales'"
        ))
        .unwrap();
    assert!(seq.rows.is_empty());
}

#[test]
fn index_answers_match_sequential_scan_over_time() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // A plain (unindexed) copy of the relation is the oracle.
    conn.exec("CREATE TABLE Plain (Name text, Department text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let all = conn
        .exec("SELECT Name, Department, Time_Extent FROM Employees")
        .unwrap();
    for row in &all.rendered {
        conn.exec(&format!(
            "INSERT INTO Plain VALUES ('{}', '{}', '{}')",
            row[0], row[1], row[2]
        ))
        .unwrap();
    }
    let queries = [
        "Overlaps(Time_Extent, '3/97, UC, 3/97, NOW')",
        "Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')",
        "ContainedIn(Time_Extent, '1/97, 12/99, 1/97, 12/99')",
        "Contains(Time_Extent, '6/97, 6/97, 4/97, 4/97')",
        "Equal(Time_Extent, '5/97, UC, 5/97, NOW')",
        "Overlaps(Time_Extent, '4/97, 5/97, 1/97, 4/97') OR \
         Equal(Time_Extent, '5/97, UC, 5/97, NOW')",
        "Overlaps(Time_Extent, '1/97, UC, 1/97, NOW') AND \
         ContainedIn(Time_Extent, '1/97, 12/99, 1/97, 12/99')",
    ];
    for when in [month(9, 1997), month(1, 1998), month(6, 2001)] {
        clock.set(when);
        for q in &queries {
            let indexed = conn
                .exec(&format!("SELECT Name FROM Employees WHERE {q}"))
                .unwrap();
            let plain = conn
                .exec(&format!("SELECT Name FROM Plain WHERE {q}"))
                .unwrap();
            let mut a: Vec<String> = indexed.rendered.iter().map(|r| r[0].clone()).collect();
            let mut b: Vec<String> = plain.rendered.iter().map(|r| r[0].clone()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{q} at {when:?}");
        }
    }
}

#[test]
fn copies_agree_indexed_vs_unindexed_vs_rstar() {
    let (db, clock) = db_with_clock();
    install_rstar_blade(
        &db,
        NowStrategy::MaxTimestamp,
        RStarOptions {
            max_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = db.connect();
    for table in ["t_grt", "t_plain", "t_rstar"] {
        conn.exec(&format!(
            "CREATE TABLE {table} (id integer, Time_Extent GRT_TimeExtent_t)"
        ))
        .unwrap();
    }
    conn.exec("CREATE INDEX g_ix ON t_grt(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    conn.exec("CREATE INDEX r_ix ON t_rstar(Time_Extent rstar_opclass) USING rstar_am")
        .unwrap();
    // A mixed synthetic history.
    clock.set(Day(10_000));
    for i in 0..120i32 {
        let base = 10_000 + (i * 7) % 300;
        clock.set(Day(10_000 + (i * 7) % 300));
        let extent = match i % 4 {
            0 => format!("{}, UC, {}, NOW", render(base), render(base)),
            1 => format!(
                "{}, UC, {}, {}",
                render(base),
                render(base - 5),
                render(base + 40)
            ),
            2 => format!("{}, UC, {}, NOW", render(base), render(base - 3)),
            _ => format!(
                "{}, {}, {}, {}",
                render(base - 7),
                render(base),
                render(base - 9),
                render(base + 2)
            ),
        };
        for table in ["t_grt", "t_plain", "t_rstar"] {
            conn.exec(&format!("INSERT INTO {table} VALUES ({i}, '{extent}')"))
                .unwrap();
        }
    }
    // Delete a third of the rows everywhere (exercises grt_delete and
    // the R*-tree delete path).
    clock.set(Day(10_400));
    for table in ["t_grt", "t_plain", "t_rstar"] {
        conn.exec(&format!(
            "DELETE FROM {table} WHERE ContainedIn(Time_Extent, '{}, {}, {}, {}')",
            render(9_980),
            render(10_100),
            render(9_980),
            render(10_100)
        ))
        .unwrap();
    }
    let queries = [
        format!(
            "Overlaps(Time_Extent, '{}, UC, {}, NOW')",
            render(10_150),
            render(10_150)
        ),
        format!(
            "Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_050),
            render(10_120),
            render(10_040),
            render(10_200)
        ),
        format!(
            "Contains(Time_Extent, '{}, {}, {}, {}')",
            render(10_100),
            render(10_100),
            render(10_050),
            render(10_050)
        ),
    ];
    for when in [Day(10_400), Day(10_900), Day(20_000)] {
        clock.set(when);
        for q in &queries {
            let mut results: Vec<Vec<i64>> = Vec::new();
            for table in ["t_grt", "t_plain", "t_rstar"] {
                let r = conn
                    .exec(&format!("SELECT id FROM {table} WHERE {q}"))
                    .unwrap();
                let mut ids: Vec<i64> = r
                    .rows
                    .iter()
                    .map(|row| match &row[0] {
                        Value::Int(i) => *i,
                        other => panic!("{other}"),
                    })
                    .collect();
                ids.sort_unstable();
                results.push(ids);
            }
            assert_eq!(results[0], results[1], "grt vs plain: {q} at {when:?}");
            assert_eq!(results[2], results[1], "rstar vs plain: {q} at {when:?}");
        }
    }
    // Both indices pass their consistency checks.
    conn.exec("CHECK INDEX g_ix").unwrap();
    conn.exec("CHECK INDEX r_ix").unwrap();
    let stats = conn.exec("UPDATE STATISTICS FOR INDEX g_ix").unwrap();
    assert!(stats.message.contains("grtree"), "{}", stats.message);
}

fn render(day: i32) -> String {
    let d = Day(day);
    let (y, m, dd) = d.to_ymd();
    format!("{m:02}/{dd:02}/{y:04}")
}

#[test]
fn figure_6_call_sequences() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    let trace = db.trace();
    trace.on("AM", 1);
    trace.take();
    // Figure 6(a): INSERT.
    conn.exec("INSERT INTO Employees VALUES ('Kai', 'Sales', '9/97, UC, 9/97, NOW')")
        .unwrap();
    let insert_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    assert_eq!(
        insert_calls,
        vec![
            "grt_open".to_string(),
            "grt_insert".into(),
            "grt_close".into()
        ],
        "Figure 6(a)"
    );
    // Figure 6(b): SELECT through the index. The executor pulls rows
    // in batches, so the per-row grt_getnext of the paper's figure
    // appears as grt_getnext_batch calls here.
    conn.exec("SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    let select_calls: Vec<String> = trace.take().into_iter().map(|e| e.message).collect();
    assert_eq!(select_calls[0], "grt_scancost", "optimizer first");
    assert_eq!(
        select_calls[1..4],
        [
            "grt_open".to_string(),
            "grt_beginscan".into(),
            "grt_getnext_batch".into()
        ]
    );
    assert!(
        select_calls
            .iter()
            .filter(|c| *c == "grt_getnext_batch")
            .count()
            >= 1
    );
    assert_eq!(
        select_calls[select_calls.len() - 2..],
        ["grt_endscan".to_string(), "grt_close".into()]
    );
}

#[test]
fn delete_through_index_exercises_cursor_restart() {
    let (db, clock) = db_with_clock();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, pad text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    clock.set(Day(11_000));
    let pad = "x".repeat(500);
    for i in 0..150i32 {
        clock.set(Day(11_000 + i));
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{pad}', '{}, UC, {}, NOW')",
            render(11_000 + i),
            render(11_000 + i)
        ))
        .unwrap();
    }
    clock.set(Day(12_000));
    db.trace().on("AM", 1);
    db.trace().take();
    // Delete most rows through the index in one statement: getnext and
    // grt_delete interleave, and condensation forces cursor restarts.
    conn.exec(&format!(
        "DELETE FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(11_000),
        render(11_120),
        render(10_990),
        render(11_121)
    ))
    .unwrap();
    let calls: Vec<String> = db.trace().take().into_iter().map(|e| e.message).collect();
    assert!(
        calls.iter().any(|c| c == "grt_getnext_batch") && calls.iter().any(|c| c == "grt_delete"),
        "the DELETE must interleave grt_getnext_batch and grt_delete: {calls:?}"
    );
    let left = conn.exec("SELECT id FROM t").unwrap();
    assert_eq!(left.rows.len(), 29, "rows 121..149 remain");
    conn.exec("CHECK INDEX tix").unwrap();
}

/// Deletes a 900-row window of a 3,000-row table through an index scan
/// on `am` (whose counters are registered under `tree`), with a fan-out
/// small enough that the deletions condense the tree under the open
/// scan, and checks the survivors against an oracle evaluated row by
/// row.
fn delete_window_through_index(am: &str, opclass: &str, tree: &str) {
    let (db, clock) = db_with_clock();
    install_rstar_blade(
        &db,
        NowStrategy::MaxTimestamp,
        RStarOptions {
            max_entries: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = db.connect();
    // Padded rows make the heap sweep dearer than the index probe.
    conn.exec("CREATE TABLE t (id integer, pad text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    let pad = "x".repeat(500);
    let extent_of = |i: i32| {
        let start = Day(10_000 + i);
        TimeExtent::from_parts(
            start,
            TtEnd::Ground(start.plus(3)),
            start,
            VtEnd::Ground(start.plus(3)),
        )
        .unwrap()
    };
    let ct = Day(13_100);
    clock.set(ct);
    for i in 0..3_000 {
        let s = render(10_000 + i);
        let e = render(10_003 + i);
        conn.exec(&format!(
            "INSERT INTO t VALUES ({i}, '{pad}', '{s}, {e}, {s}, {e}')"
        ))
        .unwrap();
    }
    conn.exec(&format!(
        "CREATE INDEX tix ON t(Time_Extent {opclass}) USING {am}"
    ))
    .unwrap();

    let (lo, hi) = (Day(11_000), Day(11_902));
    let window = TimeExtent::from_parts(lo, TtEnd::Ground(hi), lo, VtEnd::Ground(hi)).unwrap();
    let want: Vec<i64> = (0..3_000)
        .filter(|&i| !Predicate::ContainedIn.eval(&extent_of(i), &window, ct))
        .map(i64::from)
        .collect();
    assert_eq!(want.len(), 2_100, "the window covers 900 rows");

    let before = db.metrics_snapshot();
    conn.exec(&format!(
        "DELETE FROM t WHERE ContainedIn(Time_Extent, '{}, {}, {}, {}')",
        render(lo.0),
        render(hi.0),
        render(lo.0),
        render(hi.0)
    ))
    .unwrap_or_else(|e| panic!("{am}: DELETE through the index failed: {e}"));
    let d = db.metrics_snapshot().since(&before);
    assert!(
        d.get("ids.plans_index") >= 1,
        "{am}: DELETE must scan the index: {d}"
    );
    assert!(
        d.get(&format!("{tree}.condenses")) > 0,
        "{am}: the deletions never condensed the tree: {d}"
    );

    let mut left: Vec<i64> = conn
        .exec("SELECT id FROM t")
        .unwrap()
        .rows
        .into_iter()
        .map(|row| match row[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected id value {other:?}"),
        })
        .collect();
    left.sort_unstable();
    assert_eq!(left, want, "{am}: wrong survivors");
    conn.exec("CHECK INDEX tix").unwrap();
}

#[test]
fn rstar_delete_through_index_restarts_after_condense() {
    // The Section 5.5 restart rule holds for the baseline access method
    // too: without it, the scan follows a page the condense freed.
    delete_window_through_index("rstar_am", "rstar_opclass", "rstar");
    delete_window_through_index("grtree_am", "grt_opclass", "grtree");
}

#[test]
fn transactions_roll_back_the_blade() {
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    conn.exec("BEGIN WORK").unwrap();
    conn.exec("INSERT INTO Employees VALUES ('Temp', 'Sales', '9/97, UC, 9/97, NOW')")
        .unwrap();
    let r = conn
        .exec("SELECT Name FROM Employees WHERE Equal(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    conn.exec("ROLLBACK WORK").unwrap();
    let r = conn
        .exec("SELECT Name FROM Employees WHERE Equal(Time_Extent, '9/97, UC, 9/97, NOW')")
        .unwrap();
    assert!(r.rows.is_empty(), "rollback undid heap and GR-tree: {r:?}");
    conn.exec("CHECK INDEX grt_index").unwrap();
}

#[test]
fn registration_script_is_reexecutable_artifact() {
    let script = grt_blade::registration_script();
    assert!(script.contains("CREATE SECONDARY ACCESS_METHOD grtree_am"));
    assert!(script.contains("CREATE OPCLASS grt_opclass FOR grtree_am"));
    assert!(script.contains("grt_getnext"));
    // Installing twice fails cleanly on duplicates (the paper's
    // BladeManager un-registers first).
    let (db, _clock) = db_with_clock();
    let err = install_grtree_blade(&db, GrTreeAmOptions::default());
    assert!(err.is_err(), "duplicate registration must be rejected");
}

#[test]
fn per_transaction_current_time_is_stable_across_statements() {
    use grt_blade::CurrentTimePolicy;
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    install_grtree_blade(
        &db,
        GrTreeAmOptions {
            curtime: CurrentTimePolicy::PerTransaction,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec("CREATE INDEX tix ON t(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    // A tuple whose growing stair reaches the probe region only from
    // day 10_050 onwards.
    conn.exec(&format!(
        "INSERT INTO t VALUES (1, '{}, UC, {}, NOW')",
        render(10_000),
        render(10_000)
    ))
    .unwrap();
    let probe = format!(
        "Overlaps(Time_Extent, '{}, {}, {}, {}')",
        render(10_045),
        render(10_050),
        render(10_040),
        render(10_050)
    );
    conn.exec("BEGIN WORK").unwrap();
    // First use inside the transaction pins the current time at 10_020:
    // the stair has not reached the probe yet.
    clock.set(Day(10_020));
    let r1 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert!(r1.rows.is_empty());
    // The wall clock races ahead, but the transaction's time stands
    // still (Section 5.4's design): the answer must not change.
    clock.set(Day(10_100));
    let r2 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert!(
        r2.rows.is_empty(),
        "per-transaction current time must be stable: {r2:?}"
    );
    conn.exec("COMMIT WORK").unwrap();
    // A new transaction samples afresh: now the region has grown in.
    let r3 = conn
        .exec(&format!("SELECT id FROM t WHERE {probe}"))
        .unwrap();
    assert_eq!(r3.rows.len(), 1);
}

#[test]
fn support_functions_are_usable_from_sql() {
    // The operator class *declares* grt_union/grt_size/grt_intersection
    // (Section 4's example); the blade hard-codes the internal-region
    // versions, but the declared UDRs remain callable from SQL.
    let (db, clock) = db_with_clock();
    let conn = play_empdep(&db, &clock);
    // Area of Jane's growing stair at CT = 9/97 (via a non-strategy
    // function in the WHERE clause: evaluated by sequential scan).
    let r = conn
        .exec("SELECT Name FROM Employees WHERE grt_size(Time_Extent) > 5000")
        .unwrap();
    assert!(!r.rows.is_empty());
    // grt_intersection of a column with a constant.
    let r = conn
        .exec(
            "SELECT Name FROM Employees \
             WHERE grt_intersection(Time_Extent, '5/97, UC, 5/97, NOW') > 0",
        )
        .unwrap();
    let names: Vec<&str> = r.rendered.iter().map(|row| row[0].as_str()).collect();
    assert!(names.contains(&"Jane"), "{names:?}");
    // A non-strategy call cannot use the index: trace shows no getnext.
    db.trace().on("AM", 1);
    db.trace().take();
    conn.exec("SELECT Name FROM Employees WHERE grt_size(Time_Extent) > 0")
        .unwrap();
    let calls: Vec<String> = db.trace().take().into_iter().map(|e| e.message).collect();
    assert!(
        !calls.iter().any(|c| c == "grt_getnext"),
        "support functions must not drive the index: {calls:?}"
    );
}
