//! Bulk loading: the packed (sort-tile-recursive) build the baseline
//! access method uses for `CREATE INDEX` over an already-populated
//! table, mirroring the GR-tree's `bulk` module so the two builds stay
//! comparable.

use crate::node::{Entry, Node};
use crate::tree::{RStarOptions, RStarTree};
use crate::Result;
use grt_sbspace::pack::{pack_levels, str_leaf_runs};
use grt_sbspace::LoHandle;

/// Bulk-loads an R\*-tree from `(rect, rowid)` entries into an empty
/// large object using sort-tile-recursive packing over rectangle
/// centres.
pub fn bulk_load(lo: LoHandle, mut entries: Vec<Entry>, opts: RStarOptions) -> Result<RStarTree> {
    let mut tree = RStarTree::create(lo, opts)?;
    if entries.is_empty() {
        return Ok(tree);
    }
    // Target fill: ~90% of fan-out, the classical packing compromise.
    let cap = (tree.max_entries() * 9 / 10).max(2);
    let min = tree.min_fill();
    // STR over rectangle centres: x-centre slabs, runs by y-centre.
    let runs = str_leaf_runs(&mut entries, cap, min, |e| {
        (
            e.rect.x1 as i64 + e.rect.x2 as i64,
            e.rect.y1 as i64 + e.rect.y2 as i64,
        )
    });
    let mut append = |level: u16, kids: &[Entry]| -> Result<Entry> {
        let mut node = Node::new(level);
        node.entries.extend_from_slice(kids);
        let page = tree.bulk_append(&node)?;
        Ok(Entry {
            rect: node.mbr(),
            payload: page as u64,
        })
    };
    let leaves = runs
        .into_iter()
        .map(|run| append(0, &entries[run]))
        .collect::<Result<Vec<_>>>()?;
    let (root, height) = pack_levels(leaves, cap, min, append)?;
    tree.bulk_finish(root.payload as u32, height, entries.len() as u64)?;
    Ok(tree)
}

/// Convenience: bulk-load from bare `(rect, rowid)` pairs.
pub fn bulk_load_pairs(
    lo: LoHandle,
    pairs: &[(crate::geom::Rect2, u64)],
    opts: RStarOptions,
) -> Result<RStarTree> {
    let entries = pairs
        .iter()
        .map(|(rect, rowid)| Entry {
            rect: *rect,
            payload: *rowid,
        })
        .collect();
    bulk_load(lo, entries, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Rect2, SpatialPredicate};
    use grt_sbspace::{IsolationLevel, LoHandle, LockMode, Sbspace, SbspaceOptions};

    fn fresh_lo() -> LoHandle {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        std::mem::forget(txn);
        std::mem::forget(sb);
        h
    }

    fn rect_for(i: i32) -> Rect2 {
        let x = (i * 37) % 1000;
        let y = (i * 59) % 1000;
        Rect2::new(x, x + 5 + i % 7, y, y + 3 + i % 11)
    }

    #[test]
    fn bulk_load_answers_match_incremental_build() {
        let n = 500;
        let pairs: Vec<(Rect2, u64)> = (0..n).map(|i| (rect_for(i), i as u64)).collect();
        let opts = RStarOptions {
            max_entries: 16,
            ..Default::default()
        };
        let bulk = bulk_load_pairs(fresh_lo(), &pairs, opts).unwrap();
        assert_eq!(bulk.len(), n as u64);
        bulk.check().unwrap();

        let mut incr = RStarTree::create(fresh_lo(), opts).unwrap();
        for (rect, id) in &pairs {
            incr.insert(*rect, *id).unwrap();
        }
        let queries = [
            Rect2::new(0, 100, 0, 100),
            Rect2::new(500, 600, 200, 900),
            Rect2::new(0, 1000, 0, 1000),
        ];
        for q in &queries {
            for pred in [
                SpatialPredicate::Overlap,
                SpatialPredicate::Within,
                SpatialPredicate::Contains,
                SpatialPredicate::Equal,
            ] {
                let mut a = bulk.search(pred, q).unwrap();
                let mut b = incr.search(pred, q).unwrap();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{pred:?} {q}");
            }
        }
        // Packing beats incremental growth on space.
        assert!(bulk.pages() <= incr.pages());
    }

    #[test]
    fn empty_and_tiny_loads() {
        let t = bulk_load_pairs(fresh_lo(), &[], RStarOptions::default()).unwrap();
        assert_eq!(t.len(), 0);
        let t = bulk_load_pairs(
            fresh_lo(),
            &[(Rect2::new(1, 2, 1, 2), 7)],
            RStarOptions::default(),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        t.check().unwrap();
        assert_eq!(
            t.search(SpatialPredicate::Overlap, &Rect2::new(0, 3, 0, 3))
                .unwrap(),
            vec![7]
        );
    }
}
