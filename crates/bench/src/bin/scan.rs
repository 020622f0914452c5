//! Parallel-scan and bulk-build benchmark.
//!
//! ```text
//! cargo run --release -p grt-bench --bin scan [-- --quick]
//! ```
//!
//! Emits `BENCH_scan.json` (with `--quick`: fewer repetitions and
//! worker counts over the same tree, written to `BENCH_scan_quick.json`
//! for CI's `bench_gate --scan-speedup`). Three sections:
//!
//! * `selective`: a narrow bitemporal window over a large GR-tree —
//!   the case the parallel executor exists for. Reports ns/row and
//!   speedup against the same scan at one worker.
//! * `full_range`: a query consistent with every page; parallelism
//!   must still help (more pages per worker), just less dramatically
//!   per row returned.
//! * `index_build`: the same 50k-entry history packed with the
//!   sort-tile-recursive bulk loader versus inserted one entry at a
//!   time — the two paths `CREATE INDEX` chooses between (`am_build`
//!   versus the per-row `am_insert` fallback).
//!
//! Scan speedups track the host's cores: a single-core container
//! reports ≈1.0x at every degree (the checked-in baseline was
//! generated on one), while an N-core machine approaches N on the
//! selective scan. The gate compares ratios directionally, so a
//! beefier runner can only ever look better than the baseline.

use grt_bench::fixtures::fresh_lo;
use grt_grtree::{bulk, GrProbe, GrTree, GrTreeOptions, LeafEntry};
use grt_sbspace::SearchTree;
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};
use std::fmt::Write as _;
use std::time::Instant;

/// Fan-out kept moderate so the fixture spreads over thousands of
/// pages — the regime where fanning subtrees out to workers pays.
const MAX_ENTRIES: usize = 32;
const POOL_PAGES: usize = 1 << 15;
const SCAN_ENTRIES: usize = 150_000;
const BUILD_ENTRIES: usize = 50_000;
const CT: Day = Day(31_000);

fn extent(i: usize) -> TimeExtent {
    let base = ((i * 37) % 29_000) as i32;
    let (tt_end, vt_end) = match i % 4 {
        0 => (TtEnd::Uc, VtEnd::Now),
        1 => (TtEnd::Uc, VtEnd::Ground(Day(base + 40 + (i % 50) as i32))),
        2 => (
            TtEnd::Ground(Day(base + 20 + (i % 30) as i32)),
            VtEnd::Ground(Day(base + 35 + (i % 60) as i32)),
        ),
        _ => (TtEnd::Ground(Day(base + 25)), VtEnd::Now),
    };
    TimeExtent::from_parts(Day(base), tt_end, Day(base - (i % 7) as i32), vt_end).unwrap()
}

fn entries(n: usize) -> Vec<LeafEntry> {
    (0..n)
        .map(|i| LeafEntry {
            extent: extent(i),
            rowid: i as u64,
        })
        .collect()
}

fn ground(tt1: i32, tt2: i32, vt1: i32, vt2: i32) -> TimeExtent {
    TimeExtent::from_parts(
        Day(tt1),
        TtEnd::Ground(Day(tt2)),
        Day(vt1),
        VtEnd::Ground(Day(vt2)),
    )
    .unwrap()
}

struct ScanConfig {
    name: &'static str,
    query: TimeExtent,
}

fn build_fixture(n: usize) -> GrTree {
    let (sb, lo) = fresh_lo(POOL_PAGES);
    // The space must outlive the tree handle; benchmark fixtures leak
    // it for the process, like every other bin here.
    std::mem::forget(sb);
    bulk::bulk_load(
        lo,
        entries(n),
        CT,
        GrTreeOptions {
            max_entries: MAX_ENTRIES,
            ..Default::default()
        },
    )
    .unwrap()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick trims repetitions and worker counts but scans the same
    // tree, so its speedups stay comparable with the full baseline's.
    let (workers, reps, out_file): (&[usize], usize, &str) = if quick {
        (&[1, 2, 4], 2, "BENCH_scan_quick.json")
    } else {
        (&[1, 2, 4, 8], 3, "BENCH_scan.json")
    };

    let configs = [
        ScanConfig {
            name: "selective",
            query: ground(5_000, 6_000, 4_900, 6_200),
        },
        ScanConfig {
            name: "full_range",
            query: ground(0, 31_000, -10, 31_000),
        },
    ];

    let tree = build_fixture(SCAN_ENTRIES);
    println!(
        "GR-tree fixture: {SCAN_ENTRIES} entries, {} pages, height {}",
        tree.pages(),
        tree.height()
    );

    let mut json = String::from("{\n");
    for cfg in &configs {
        println!("== {} ==", cfg.name);
        let mut rows_out = Vec::new();
        let mut serial_ns: Option<f64> = None;
        for &w in workers {
            let mut best_ns = f64::INFINITY;
            let mut rows = 0usize;
            for _ in 0..reps {
                let start = Instant::now();
                let out = tree
                    .parallel_scan(&GrProbe::new(Predicate::Overlaps, cfg.query, CT), w)
                    .unwrap();
                let ns = start.elapsed().as_nanos() as f64;
                rows = out.rows.len();
                if ns < best_ns {
                    best_ns = ns;
                }
            }
            assert!(rows > 0, "{}: the query matched nothing", cfg.name);
            if w == 1 {
                serial_ns = Some(best_ns);
            }
            let speedup = serial_ns.expect("workers list starts at 1") / best_ns;
            let ns_per_row = best_ns / rows as f64;
            println!(
                "  {w} worker(s): {ns_per_row:8.1} ns/row over {rows} rows  (speedup {speedup:.2}x)"
            );
            rows_out.push(format!(
                "      {{\"workers\": {w}, \"ns_per_row\": {ns_per_row:.1}, \
                 \"rows\": {rows}, \"speedup\": {speedup:.3}}}"
            ));
        }
        let _ = write!(
            json,
            "  \"{}\": {{\n    \"entries\": {SCAN_ENTRIES},\n    \"scans\": [\n{}\n    ]\n  }},\n",
            cfg.name,
            rows_out.join(",\n")
        );
    }

    // Bulk versus incremental build over one identical entry set.
    println!("== index_build ==");
    let build_set = entries(BUILD_ENTRIES);
    let mut bulk_ns = f64::INFINITY;
    let mut incr_ns = f64::INFINITY;
    for _ in 0..reps {
        let (sb, lo) = fresh_lo(POOL_PAGES);
        let start = Instant::now();
        let t = bulk::bulk_load(
            lo,
            build_set.clone(),
            CT,
            GrTreeOptions {
                max_entries: MAX_ENTRIES,
                ..Default::default()
            },
        )
        .unwrap();
        bulk_ns = bulk_ns.min(start.elapsed().as_nanos() as f64);
        assert_eq!(t.len(), BUILD_ENTRIES as u64);
        drop(t);
        std::mem::forget(sb);

        let (sb, lo) = fresh_lo(POOL_PAGES);
        let mut t = GrTree::create(
            lo,
            GrTreeOptions {
                max_entries: MAX_ENTRIES,
                ..Default::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        for e in &build_set {
            t.insert(e.extent, e.rowid, CT).unwrap();
        }
        incr_ns = incr_ns.min(start.elapsed().as_nanos() as f64);
        drop(t);
        std::mem::forget(sb);
    }
    let advantage = incr_ns / bulk_ns;
    println!(
        "  bulk (STR):   {:8.1} ns/row  ({:.1} ms total)",
        bulk_ns / BUILD_ENTRIES as f64,
        bulk_ns / 1e6
    );
    println!(
        "  incremental:  {:8.1} ns/row  ({:.1} ms total)  — bulk is {advantage:.2}x faster",
        incr_ns / BUILD_ENTRIES as f64,
        incr_ns / 1e6
    );
    let _ = write!(
        json,
        "  \"index_build\": {{\n    \"entries\": {BUILD_ENTRIES},\n    \"builds\": [\n      \
         {{\"method\": \"bulk\", \"ns_per_row\": {:.1}, \"advantage\": {advantage:.3}}},\n      \
         {{\"method\": \"incremental\", \"ns_per_row\": {:.1}, \"advantage\": 1.0}}\n    ]\n  }}\n",
        bulk_ns / BUILD_ENTRIES as f64,
        incr_ns / BUILD_ENTRIES as f64
    );
    json.push('}');
    json.push('\n');
    std::fs::write(out_file, &json).unwrap();
    println!("\nwrote {out_file}");
}
