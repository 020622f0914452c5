//! Qual-aware index costing: `am_scancost` reads the predicate it is
//! handed. A narrow probe over a big table must price the index below
//! the heap sweep (before this, a blind `pages * 0.25` estimate let
//! wide scans masquerade as cheap), and a full-range probe — which
//! really does visit everything — must lose to the sequential scan.
//! Both tree access methods are held to this: the R\*-tree's bound
//! reaches `Day::MAX` under max-timestamp grounding, which must not
//! flatten its estimate.

use grtree_datablade::blade::{install_grtree_blade, install_rstar_blade, GrTreeAmOptions};
use grtree_datablade::ids::{Database, DatabaseOptions};
use grtree_datablade::rstar::bitemporal::NowStrategy;
use grtree_datablade::rstar::RStarOptions;
use grtree_datablade::temporal::{Day, MockClock};
use std::sync::Arc;

fn render(day: i32) -> String {
    let (y, m, d) = Day(day).to_ymd();
    format!("{m:02}/{d:02}/{y:04}")
}

#[test]
fn narrow_probe_beats_sequential_scan_and_full_range_does_not() {
    plans_follow_probe_width("grtree_am", "grt_opclass", "grtree");
    plans_follow_probe_width("rstar_am", "rstar_opclass", "rstar");
}

fn plans_follow_probe_width(am: &str, opclass: &str, tree: &str) {
    let clock = MockClock::new(Day(10_000));
    let db = Database::new(DatabaseOptions {
        clock: Arc::new(clock.clone()),
        ..Default::default()
    });
    if am == "rstar_am" {
        install_rstar_blade(&db, NowStrategy::MaxTimestamp, RStarOptions::default()).unwrap();
    } else {
        install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    }
    let conn = db.connect();
    conn.exec("CREATE TABLE t (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    conn.exec(&format!(
        "CREATE INDEX tix ON t(Time_Extent {opclass}) USING {am}"
    ))
    .unwrap();
    for i in 0..200 {
        clock.set(Day(10_000 + i));
        let s = render(10_000 + i);
        conn.exec(&format!("INSERT INTO t VALUES ({i}, '{s}, UC, {s}, NOW')"))
            .unwrap();
    }
    clock.set(Day(10_300));

    // A sliver of the indexed region: the overlap-derived selectivity
    // prices the index probe below the 200-row heap sweep.
    let before = db.metrics_snapshot();
    let narrow = conn
        .exec(&format!(
            "SELECT id FROM t WHERE Overlaps(Time_Extent, '{}, {}, {}, {}')",
            render(10_005),
            render(10_012),
            render(10_004),
            render(10_013)
        ))
        .unwrap();
    assert!(!narrow.rows.is_empty());
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(
        d.get("ids.plans_index"),
        1,
        "{am}: narrow probe must use the index: {d}"
    );
    assert_eq!(d.get("ids.plans_seq"), 0, "{am}: {d}");
    assert!(d.get(&format!("{tree}.searches")) > 0, "{am}: {d}");

    // A probe covering the whole history: selectivity ≈ 1, so the
    // index would touch every page *and* pay the tree overhead — the
    // sequential scan wins.
    let before = db.metrics_snapshot();
    let wide = conn
        .exec(
            "SELECT id FROM t WHERE Overlaps(Time_Extent, \
             '01/01/1997, UC, 01/01/1997, NOW')",
        )
        .unwrap();
    assert_eq!(wide.rows.len(), 200);
    let d = db.metrics_snapshot().since(&before);
    assert_eq!(
        d.get("ids.plans_seq"),
        1,
        "{am}: full-range probe must sweep the heap: {d}"
    );
    assert_eq!(d.get("ids.plans_index"), 0, "{am}: {d}");
}
