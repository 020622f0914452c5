//! Cold-scan and batched-flush I/O benchmark.
//!
//! ```text
//! cargo run --release -p grt-bench --bin coldscan [-- --quick]
//! ```
//!
//! Emits `BENCH_io.json` (with `--quick`: a smaller tree, written to
//! `BENCH_io_quick.json` for CI's `bench_gate --cold-scan`). Two
//! sections:
//!
//! * `coldscan`: a full-range scan over a file-backed GR-tree ~8-18x
//!   the buffer pool, with the pool's page cache dropped before every
//!   repetition so each scan faults its pages from the backend. The
//!   same scan runs against the same directory twice — once with scan
//!   prefetch off, once with two prefetch workers — and reports the
//!   best-of-reps latency of each plus the prefetch and
//!   read-coalescing counters of the prefetched pass. A cold scan plus
//!   an immediately repeated (warm) scan bound the cache-efficiency
//!   claim: over that window physical reads must run strictly below
//!   logical reads, with real prefetch hits.
//! * `checkpoint`: ~2000 copy-on-write dirty pages flushed by one
//!   checkpoint through the batched `write_pages` path. Reports MB/s
//!   and the write-run shape — sorted-by-PageId batching must coalesce
//!   the mostly-sequential COW allocations into multi-page runs.
//!
//! On a 1-CPU runner the OS page cache makes a "physical" read cheap,
//! so the off/on latency gap is modest there — the gate's quick mode
//! treats the speedup directionally (>= 0.8x, i.e. prefetch must not
//! *hurt*) and leans on the counter checks (hits > 0, pages/run > 1)
//! for the real evidence that the machinery engaged.

use grt_bench::trailer::CostTrailer;
use grt_grtree::{bulk, GrProbe, GrTree, GrTreeOptions, LeafEntry};
use grt_sbspace::{IsolationLevel, LoId, LockMode, Sbspace, SbspaceOptions, SearchTree, PAGE_SIZE};
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

const MAX_ENTRIES: usize = 32;
/// The scan-phase pool: small enough that the tree is 8-18x larger.
const SCAN_POOL_PAGES: usize = 256;
/// The build/flush-phase pool: large enough to hold every dirty page
/// of its no-steal transaction.
const BIG_POOL_PAGES: usize = 1 << 15;
/// Dirty pages the checkpoint-flush phase pushes through one batch.
const FLUSH_PAGES: u32 = 2_000;
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

/// A query consistent with every page: the cold scan must touch the
/// whole tree, so the comparison is pure I/O shape.
fn full_range() -> TimeExtent {
    TimeExtent::from_parts(
        Day(0),
        TtEnd::Ground(Day(31_000)),
        Day(-10),
        VtEnd::Ground(Day(31_000)),
    )
    .unwrap()
}

/// A narrow transaction-time window whose qualifying subtree fits the
/// scan pool in both modes — the "revisit" workload of the
/// cache-efficiency window. Early in transaction time so few
/// still-open (`UC`) extents reach back across it: at 150k entries it
/// touches well under 256 pages, so repeated revisits must come out
/// of cache.
fn selective() -> TimeExtent {
    TimeExtent::from_parts(
        Day(500),
        TtEnd::Ground(Day(560)),
        Day(-10),
        VtEnd::Ground(Day(31_000)),
    )
    .unwrap()
}

fn opts(pool_pages: usize, prefetch_workers: usize, group_commit: bool) -> SbspaceOptions {
    SbspaceOptions {
        pool_pages,
        lock_timeout: Duration::from_secs(10),
        group_commit,
        prefetch_workers,
        ..Default::default()
    }
}

/// Builds the on-disk fixture once: a bulk-loaded GR-tree in `dir`,
/// checkpointed so the pages live in `pages.db` and reopens replay
/// almost no log. Returns the LoId the scan phases reopen.
fn build_fixture(dir: &Path, n: usize) -> LoId {
    let sb = Sbspace::file(dir, opts(BIG_POOL_PAGES, 0, false)).unwrap();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo_id = sb.create_lo(&txn).unwrap();
    let handle = sb.open_lo(&txn, lo_id, LockMode::Exclusive).unwrap();
    let tree = bulk::bulk_load(
        handle,
        entries(n),
        CT,
        GrTreeOptions {
            max_entries: MAX_ENTRIES,
            ..Default::default()
        },
    )
    .unwrap();
    tree.into_lo().unwrap().close().unwrap();
    txn.commit().unwrap();
    sb.checkpoint().unwrap();
    lo_id
}

/// One cold-scan pass over the fixture at the given prefetch setting:
/// best-of-`reps` cold latency, then an instrumented cold + warm scan
/// pair whose counter deltas make the report's evidence.
struct ColdPass {
    best_ns: f64,
    rows: usize,
    tree_pages: u32,
    /// Deltas over the instrumented cold scan only.
    cold: grt_sbspace::IoSnapshot,
    /// Deltas over the repeated selective revisits that follow it.
    revisit: grt_sbspace::IoSnapshot,
}

fn cold_pass(dir: &Path, lo_id: LoId, prefetch_workers: usize, reps: usize) -> ColdPass {
    let sb = Sbspace::file(dir, opts(SCAN_POOL_PAGES, prefetch_workers, false)).unwrap();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let handle = sb.open_lo(&txn, lo_id, LockMode::Shared).unwrap();
    let tree = GrTree::open(handle).unwrap();
    let query = full_range();
    let mut trailer = CostTrailer::new(sb.metrics());

    let mut best_ns = f64::INFINITY;
    let mut rows = 0usize;
    for _ in 0..reps {
        sb.drop_page_cache()
            .expect("no uncommitted writes during the scan");
        let start = Instant::now();
        let out = tree
            .parallel_scan(&GrProbe::new(Predicate::Overlaps, query, CT), 2)
            .unwrap();
        let ns = start.elapsed().as_nanos() as f64;
        rows = out.rows.len();
        best_ns = best_ns.min(ns);
    }
    assert!(rows > 0, "the full-range query matched nothing");

    // Instrumented pass: one cold full scan, then a selective window
    // revisited three times. The tree is ~8-18x the pool, so a warm
    // *full* revisit would re-fault everything; the revisit instead
    // probes a subtree the pool can hold, from a freshly dropped cache
    // — its first repetition faults (prefetch announcing the subtree
    // ahead of the cursor) into an empty pool, so the later ones must
    // come entirely out of cache and physical reads over the revisit
    // window run strictly below logical ones. (Without the drop, the
    // full scan's leftovers sit in the clock with their reference bits
    // set and keep squeezing the revisit set out.) The prefetcher is
    // quiesced before each sample so late installs land inside the
    // window they belong to.
    sb.drop_page_cache()
        .expect("no uncommitted writes during the scan");
    let before = sb.stats().snapshot();
    tree.parallel_scan(&GrProbe::new(Predicate::Overlaps, query, CT), 2)
        .unwrap();
    sb.prefetch_quiesce();
    let cold = sb.stats().snapshot().since(&before);
    sb.drop_page_cache()
        .expect("no uncommitted writes during the scan");
    let mid = sb.stats().snapshot();
    for _ in 0..3 {
        let narrow = tree
            .parallel_scan(&GrProbe::new(Predicate::Overlaps, selective(), CT), 2)
            .unwrap();
        assert!(
            !narrow.rows.is_empty(),
            "the selective query matched nothing"
        );
    }
    sb.prefetch_quiesce();
    let revisit = sb.stats().snapshot().since(&mid);
    let label = if prefetch_workers > 0 {
        format!("cold+warm prefetch={prefetch_workers}")
    } else {
        "cold+warm prefetch=off".to_string()
    };
    println!("{}", CostTrailer::line(&label, &trailer.phase()));

    let tree_pages = tree.pages();
    drop(tree);
    drop(txn);
    ColdPass {
        best_ns,
        rows,
        tree_pages,
        cold,
        revisit,
    }
}

/// Dirties `FLUSH_PAGES` pages of the fixture under group commit and
/// times the checkpoint that flushes them through `write_pages`.
/// Copy-on-write allocation makes the dirty set mostly sequential, so
/// the sorted batch must coalesce into multi-page runs.
struct FlushFigures {
    pages: u64,
    ms: f64,
    mb_per_sec: f64,
    write_runs: u64,
    coalesced_writes: u64,
}

fn flush_pass(dir: &Path, lo_id: LoId) -> FlushFigures {
    let sb = Sbspace::file(dir, opts(BIG_POOL_PAGES, 0, true)).unwrap();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let mut handle = sb.open_lo(&txn, lo_id, LockMode::Exclusive).unwrap();
    let dirty = FLUSH_PAGES.min(handle.page_count());
    for p in 0..dirty {
        handle.write_page(p, &[(p % 251) as u8; PAGE_SIZE]).unwrap();
    }
    handle.close().unwrap();
    txn.commit().unwrap();

    let before = sb.stats().snapshot();
    let start = Instant::now();
    sb.checkpoint().unwrap();
    let elapsed = start.elapsed();
    let d = sb.stats().snapshot().since(&before);
    let ms = elapsed.as_secs_f64() * 1e3;
    FlushFigures {
        pages: d.physical_writes,
        ms,
        mb_per_sec: (d.physical_writes * PAGE_SIZE as u64) as f64 / 1e6 / elapsed.as_secs_f64(),
        write_runs: d.write_runs,
        coalesced_writes: d.coalesced_writes,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick shrinks the tree but keeps best-of-3 cold repetitions: the
    // off/on latency ratio is the gated figure, and on a 1-CPU runner
    // a single cold pass is too jittery to compare.
    let (n, reps, out_file) = if quick {
        (60_000usize, 3usize, "BENCH_io_quick.json")
    } else {
        (150_000usize, 3usize, "BENCH_io.json")
    };

    let dir = std::env::temp_dir().join(format!("grt-coldscan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lo_id = build_fixture(&dir, n);
    println!("coldscan fixture: {n} entries in {}", dir.display());

    let off = cold_pass(&dir, lo_id, 0, reps);
    let on = cold_pass(&dir, lo_id, 2, reps);
    assert_eq!(off.rows, on.rows, "prefetch changed the result set");
    let speedup = off.best_ns / on.best_ns;
    println!(
        "cold scan: {} pages over a {SCAN_POOL_PAGES}-page pool ({} rows)",
        on.tree_pages, on.rows
    );
    println!(
        "  prefetch off: {:7.1} ms   ({} physical reads)",
        off.best_ns / 1e6,
        off.cold.physical_reads
    );
    println!(
        "  prefetch on:  {:7.1} ms   ({} physical reads in {} runs, {} hits, {} wasted)  {speedup:.2}x",
        on.best_ns / 1e6,
        on.cold.physical_reads,
        on.cold.read_runs,
        on.cold.prefetch_hits,
        on.cold.prefetch_wasted
    );
    // The cache-efficiency claim: across the revisit window the pool
    // (and the prefetcher feeding it) must absorb the repetitions —
    // strictly fewer physical than logical reads — and prefetched
    // pages must actually have been hit somewhere in the pass.
    assert!(
        on.revisit.physical_reads < on.revisit.logical_reads,
        "physical reads ({}) did not run below logical reads ({})",
        on.revisit.physical_reads,
        on.revisit.logical_reads
    );
    let pass_hits = on.cold.prefetch_hits + on.revisit.prefetch_hits;
    assert!(pass_hits > 0, "no prefetch hit landed");

    let pages_per_run_on = on.cold.physical_reads as f64 / on.cold.read_runs.max(1) as f64;
    let flush = flush_pass(&dir, lo_id);
    let pages_per_write_run = flush.pages as f64 / flush.write_runs.max(1) as f64;
    println!(
        "checkpoint flush: {} pages in {:.1} ms ({:.1} MB/s), {} runs ({:.1} pages/run, {} coalesced)",
        flush.pages, flush.ms, flush.mb_per_sec, flush.write_runs, pages_per_write_run,
        flush.coalesced_writes
    );

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"coldscan\": {{\n    \
           \"entries\": {n},\n    \
           \"tree_pages\": {},\n    \
           \"pool_pages\": {SCAN_POOL_PAGES},\n    \
           \"rows\": {},\n    \
           \"cold_ns_off\": {:.0},\n    \
           \"cold_ns_on\": {:.0},\n    \
           \"cold_speedup\": {speedup:.3},\n    \
           \"physical_reads_off\": {},\n    \
           \"physical_reads_on\": {},\n    \
           \"read_runs_on\": {},\n    \
           \"pages_per_run_on\": {pages_per_run_on:.2},\n    \
           \"prefetch_issued\": {},\n    \
           \"prefetch_hits\": {},\n    \
           \"prefetch_wasted\": {},\n    \
           \"delta_logical_reads\": {},\n    \
           \"delta_physical_reads\": {}\n  }},\n",
        on.tree_pages,
        on.rows,
        off.best_ns,
        on.best_ns,
        off.cold.physical_reads,
        on.cold.physical_reads,
        on.cold.read_runs,
        on.cold.prefetch_issued + on.revisit.prefetch_issued,
        pass_hits,
        on.cold.prefetch_wasted + on.revisit.prefetch_wasted,
        on.revisit.logical_reads,
        on.revisit.physical_reads,
    );
    let _ = write!(
        json,
        "  \"checkpoint\": {{\n    \
           \"dirty_pages\": {},\n    \
           \"flush_ms\": {:.2},\n    \
           \"mb_per_sec\": {:.1},\n    \
           \"write_runs\": {},\n    \
           \"pages_per_write_run\": {pages_per_write_run:.2},\n    \
           \"coalesced_writes\": {}\n  }}\n",
        flush.pages, flush.ms, flush.mb_per_sec, flush.write_runs, flush.coalesced_writes,
    );
    json.push('}');
    json.push('\n');
    std::fs::write(out_file, &json).unwrap();
    println!("wrote {out_file}");
    let _ = std::fs::remove_dir_all(&dir);
}
