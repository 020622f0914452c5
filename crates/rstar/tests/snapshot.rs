//! R\*-tree parallel scans: they must agree with the serial cursor on a
//! locked tree and on a frozen space snapshot — the two views
//! `rstar_am` scans through.

use grt_metrics::TreeMetrics;
use grt_rstar::{RStarOptions, RStarTree, RStarTreeReader, Rect2, RectProbe, SpatialPredicate};
use grt_sbspace::{IsolationLevel, LoId, LockMode, Sbspace, SbspaceOptions, SearchTree};

fn rect_for(i: i32) -> Rect2 {
    let x = (i * 37) % 1000;
    let y = (i * 59) % 1000;
    Rect2::new(x, x + 5 + i % 7, y, y + 3 + i % 11)
}

fn options() -> RStarOptions {
    RStarOptions {
        max_entries: 8,
        ..Default::default()
    }
}

fn space() -> Sbspace {
    Sbspace::mem(SbspaceOptions {
        pool_pages: 4096,
        ..Default::default()
    })
}

/// A tree over `n` rectangles, under an open exclusive lock.
fn locked_tree(n: i32) -> RStarTree {
    let sb = space();
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    std::mem::forget(txn);
    let mut t = RStarTree::create(handle, options()).unwrap();
    for i in 0..n {
        t.insert(rect_for(i), i as u64).unwrap();
    }
    t
}

/// Builds a tree over `n` rectangles in a fresh committed large object.
fn committed_tree(sb: &Sbspace, n: i32) -> LoId {
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let handle = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    let mut t = RStarTree::create(handle, options()).unwrap();
    for i in 0..n {
        t.insert(rect_for(i), i as u64).unwrap();
    }
    drop(t.into_lo().unwrap());
    txn.commit().unwrap();
    lo
}

fn parallel_ids<T: SearchTree<Probe = RectProbe>>(
    tree: &T,
    probe: &RectProbe,
    workers: usize,
) -> Vec<u64>
where
    T::Source: Sync,
{
    let mut got: Vec<u64> = tree
        .parallel_scan(probe, workers)
        .unwrap()
        .rows
        .iter()
        .map(|(_, id)| *id)
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn parallel_matches_serial_across_degrees() {
    let tree = locked_tree(400);
    let query = Rect2::new(100, 600, 100, 600);
    for pred in [SpatialPredicate::Overlap, SpatialPredicate::Within] {
        let mut want = tree.search(pred, &query).unwrap();
        want.sort_unstable();
        for workers in [1, 2, 4, 8] {
            let got = parallel_ids(&*tree, &RectProbe { pred, query }, workers);
            assert_eq!(got, want, "{pred:?} at degree {workers} diverged");
        }
    }
}

#[test]
fn snapshot_parallel_scan_matches_serial_across_degrees() {
    let sb = space();
    let lo = committed_tree(&sb, 400);
    let snap = sb.snapshot_for(&[lo]).unwrap();
    let reader = RStarTreeReader::open(snap.reader(lo).unwrap(), TreeMetrics::default()).unwrap();
    assert_eq!(reader.len(), 400);

    for pred in [SpatialPredicate::Overlap, SpatialPredicate::Within] {
        let probe = RectProbe {
            pred,
            query: Rect2::new(0, 1100, 0, 1100),
        };
        let mut cursor = reader.cursor(probe);
        let mut want: Vec<u64> = Vec::new();
        while let Some((_, rowid)) = reader.cursor_next(&mut cursor).unwrap() {
            want.push(rowid);
        }
        want.sort_unstable();
        assert_eq!(want.len(), 400, "{pred:?} must cover every entry");
        for workers in [1, 2, 4, 8] {
            let got = parallel_ids(&reader, &probe, workers);
            assert_eq!(got, want, "{pred:?} at degree {workers} diverged");
        }
    }
    drop((reader, snap));
    assert_eq!(sb.snapshots_open(), 0);
}
