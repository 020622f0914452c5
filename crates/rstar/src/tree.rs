//! The disk-resident R\*-tree.
//!
//! Structure and algorithms follow Beckmann et al. (SIGMOD 1990): subtree
//! choice by overlap enlargement above the leaf level, margin-driven
//! split-axis selection, forced reinsertion on first overflow per level,
//! and deletion with tree condensation (underfull nodes dissolved and
//! their entries reinserted at their original level).
//!
//! The tree lives in one sbspace large object, one node per page, with
//! the header on logical page 0 — the same storage layout the GR-tree
//! DataBlade uses, so I/O comparisons between the two are apples to
//! apples.

use crate::geom::{Rect2, SpatialPredicate};
use crate::meta::RStarParams;
use crate::node::{Entry, Node, MAX_FANOUT};
use crate::search::RectProbe;
use crate::stats::TreeQuality;
use crate::{RStarError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{ChildFate, DeleteOutcome, LoHandle, NodeStore, SearchTree};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct RStarOptions {
    /// Maximum entries per node (M); capped by the page size.
    pub max_entries: usize,
    /// Minimum fill of non-root nodes, as a percentage of M (the
    /// R\*-tree paper recommends 40%).
    pub min_fill_pct: u32,
    /// Share of entries evicted by forced reinsertion (30% in the
    /// R\*-tree paper; 0 disables reinsertion).
    pub reinsert_pct: u32,
}

impl Default for RStarOptions {
    fn default() -> Self {
        RStarOptions {
            max_entries: MAX_FANOUT,
            min_fill_pct: 40,
            reinsert_pct: 30,
        }
    }
}

/// A disk-resident R\*-tree owning its large-object handle. Header,
/// page allocation and search come from its [`NodeStore`], which the
/// tree derefs to.
pub struct RStarTree {
    store: NodeStore<Node>,
}

impl Deref for RStarTree {
    type Target = NodeStore<Node>;
    fn deref(&self) -> &NodeStore<Node> {
        &self.store
    }
}

impl DerefMut for RStarTree {
    fn deref_mut(&mut self) -> &mut NodeStore<Node> {
        &mut self.store
    }
}

impl RStarTree {
    /// Initialises a fresh tree inside an (empty) large object.
    pub fn create(lo: LoHandle, opts: RStarOptions) -> Result<RStarTree> {
        let max_entries = opts.max_entries.clamp(4, MAX_FANOUT) as u32;
        let min_fill = (max_entries * opts.min_fill_pct.clamp(10, 50) / 100).max(2);
        let params = RStarParams {
            max_entries,
            reinsert_pct: opts.reinsert_pct.min(45),
        };
        let store = NodeStore::create(lo, min_fill, params, &Node::new(0))?;
        Ok(RStarTree { store })
    }

    /// Opens an existing tree.
    pub fn open(lo: LoHandle) -> Result<RStarTree> {
        let store = NodeStore::open(lo, TreeMetrics::default())?;
        Ok(RStarTree { store })
    }

    /// Releases the large-object handle, flushing the header when the
    /// handle is writable (read-only opens never changed it).
    pub fn into_lo(self) -> Result<LoHandle> {
        Ok(self.store.into_lo()?)
    }

    /// Maximum node fan-out of this tree instance.
    pub fn max_entries(&self) -> usize {
        self.meta.params.max_entries as usize
    }

    /// Inserts `rect` with payload `rowid`.
    pub fn insert(&mut self, rect: Rect2, rowid: u64) -> Result<()> {
        let mut reinserted = HashSet::new();
        let mut pending: Vec<(Entry, u16)> = vec![(
            Entry {
                rect,
                payload: rowid,
            },
            0,
        )];
        while let Some((entry, level)) = pending.pop() {
            self.insert_toplevel(entry, level, &mut reinserted, &mut pending)?;
        }
        Ok(self.finish_insert()?)
    }

    fn insert_toplevel(
        &mut self,
        entry: Entry,
        level: u16,
        reinserted: &mut HashSet<u16>,
        pending: &mut Vec<(Entry, u16)>,
    ) -> Result<()> {
        let root = self.meta.root;
        if let Some(sibling) = self.insert_rec(root, entry, level, reinserted, pending)? {
            // The root split: grow the tree by one level.
            let old_root_node = self.read_node(root)?;
            let left = Entry {
                rect: old_root_node.mbr(),
                payload: root as u64,
            };
            let mut new_root = Node::new(old_root_node.level + 1);
            new_root.entries.push(left);
            new_root.entries.push(sibling);
            let new_root_page = self.alloc(&new_root)?;
            self.meta.root = new_root_page;
            self.meta.height += 1;
        }
        Ok(())
    }

    /// Recursive insertion; returns the sibling entry if this node split.
    fn insert_rec(
        &mut self,
        page: u32,
        entry: Entry,
        target_level: u16,
        reinserted: &mut HashSet<u16>,
        pending: &mut Vec<(Entry, u16)>,
    ) -> Result<Option<Entry>> {
        let mut node = self.read_node(page)?;
        if node.level == target_level {
            node.entries.push(entry);
        } else {
            let idx = self.choose_subtree(&node, &entry.rect);
            let child = node.entries[idx].payload as u32;
            let split = self.insert_rec(child, entry, target_level, reinserted, pending)?;
            node.entries[idx].rect = self.read_node(child)?.mbr();
            if let Some(sibling) = split {
                node.entries.push(sibling);
            }
        }
        if node.entries.len() > self.max_entries() {
            let is_root = page == self.meta.root;
            if !is_root && self.meta.params.reinsert_pct > 0 && reinserted.insert(node.level) {
                // Forced reinsertion: evict the entries farthest from the
                // node centre and re-add them at this level.
                let k =
                    ((node.entries.len() * self.meta.params.reinsert_pct as usize) / 100).max(1);
                self.metrics().reinserts.add(k as u64);
                let mbr = node.mbr();
                node.entries
                    .sort_by_key(|e| std::cmp::Reverse(e.rect.center_dist2(&mbr)));
                let evicted: Vec<Entry> = node.entries.drain(..k).collect();
                self.write_node(page, &node)?;
                for e in evicted {
                    pending.push((e, node.level));
                }
                return Ok(None);
            }
            let (a, b) = self.split(node);
            self.write_node(page, &a)?;
            let b_mbr = b.mbr();
            let b_page = self.alloc(&b)?;
            return Ok(Some(Entry {
                rect: b_mbr,
                payload: b_page as u64,
            }));
        }
        self.write_node(page, &node)?;
        Ok(None)
    }

    /// R\*-tree ChooseSubtree: overlap enlargement when the children are
    /// leaves, area enlargement otherwise.
    fn choose_subtree(&self, node: &Node, rect: &Rect2) -> usize {
        let area_key = |e: &Entry| {
            let enlarged = e.rect.union(rect);
            (enlarged.area() - e.rect.area(), e.rect.area())
        };
        if node.level == 1 {
            // Children are leaves: minimise overlap enlargement, ties by
            // area enlargement, then area.
            let mut best = 0usize;
            let mut best_key = (i128::MAX, i128::MAX, i128::MAX);
            for (i, e) in node.entries.iter().enumerate() {
                let enlarged = e.rect.union(rect);
                let mut overlap_delta: i128 = 0;
                for (j, other) in node.entries.iter().enumerate() {
                    if i != j {
                        overlap_delta +=
                            enlarged.overlap_area(&other.rect) - e.rect.overlap_area(&other.rect);
                    }
                }
                let (area_delta, area) = area_key(e);
                let key = (overlap_delta, area_delta, area);
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            (0..node.entries.len())
                .min_by_key(|&i| area_key(&node.entries[i]))
                .unwrap_or(0)
        }
    }

    /// R\*-tree split: margin-driven axis selection, overlap-driven
    /// distribution selection.
    fn split(&self, node: Node) -> (Node, Node) {
        self.metrics().splits.inc();
        let m = self.meta.min_fill as usize;
        let total = node.entries.len();
        let level = node.level;
        #[allow(clippy::type_complexity)]
        let sort_keys: [fn(&Entry) -> (i32, i32); 4] = [
            |e| (e.rect.x1, e.rect.x2),
            |e| (e.rect.x2, e.rect.x1),
            |e| (e.rect.y1, e.rect.y2),
            |e| (e.rect.y2, e.rect.y1),
        ];
        // Margin sum per axis (keys 0,1 = x; keys 2,3 = y).
        let mut axis_margin = [0i64; 2];
        let mut sorted: Vec<Vec<Entry>> = Vec::with_capacity(4);
        for (k, key) in sort_keys.iter().enumerate() {
            let mut entries = node.entries.clone();
            entries.sort_by_key(key);
            for split_at in m..=(total - m) {
                let g1 = entries[..split_at]
                    .iter()
                    .fold(Rect2::empty(), |acc, e| acc.union(&e.rect));
                let g2 = entries[split_at..]
                    .iter()
                    .fold(Rect2::empty(), |acc, e| acc.union(&e.rect));
                axis_margin[k / 2] += g1.margin() + g2.margin();
            }
            sorted.push(entries);
        }
        let axis = if axis_margin[0] <= axis_margin[1] {
            0
        } else {
            1
        };
        // Among the chosen axis's two sort orders, pick the distribution
        // with minimum overlap (ties: minimum total area).
        let mut best: Option<(i128, i128, usize, usize)> = None; // (overlap, area, key, split_at)
        for key in [axis * 2, axis * 2 + 1] {
            let entries = &sorted[key];
            for split_at in m..=(total - m) {
                let g1 = entries[..split_at]
                    .iter()
                    .fold(Rect2::empty(), |acc, e| acc.union(&e.rect));
                let g2 = entries[split_at..]
                    .iter()
                    .fold(Rect2::empty(), |acc, e| acc.union(&e.rect));
                let cand = (g1.overlap_area(&g2), g1.area() + g2.area(), key, split_at);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        let (_, _, key, split_at) = best.expect("at least one distribution");
        let entries = &sorted[key];
        let mut a = Node::new(level);
        let mut b = Node::new(level);
        a.entries.extend_from_slice(&entries[..split_at]);
        b.entries.extend_from_slice(&entries[split_at..]);
        (a, b)
    }

    /// Deletes the entry `(rect, rowid)`. Underfull nodes are dissolved
    /// and their entries reinserted (CondenseTree).
    pub fn delete(&mut self, rect: Rect2, rowid: u64) -> Result<DeleteOutcome> {
        let root = self.meta.root;
        let mut orphans: Vec<(Vec<Entry>, u16)> = Vec::new();
        let removed = self.delete_rec(root, &rect, rowid, &mut orphans)?;
        if removed.is_none() {
            return Ok(DeleteOutcome::default());
        }
        let condensed = !orphans.is_empty();
        // Reinsert the dissolved nodes' entries at their own level.
        for (entries, level) in orphans {
            for entry in entries {
                let mut reinserted = HashSet::new();
                let mut pending = vec![(entry, level)];
                while let Some((e, l)) = pending.pop() {
                    self.insert_toplevel(e, l, &mut reinserted, &mut pending)?;
                }
            }
        }
        self.finish_delete(condensed)
    }

    /// Recursive delete; `Ok(Some(fate))` when the entry was found under
    /// `page`.
    fn delete_rec(
        &mut self,
        page: u32,
        rect: &Rect2,
        rowid: u64,
        orphans: &mut Vec<(Vec<Entry>, u16)>,
    ) -> Result<Option<ChildFate<Entry>>> {
        let mut node = self.read_node(page)?;
        let is_root = page == self.meta.root;
        if node.is_leaf() {
            let Some(idx) = node
                .entries
                .iter()
                .position(|e| e.payload == rowid && e.rect == *rect)
            else {
                return Ok(None);
            };
            node.entries.remove(idx);
            if !is_root && node.entries.len() < self.meta.min_fill as usize {
                let fate = ChildFate::Dissolved(std::mem::take(&mut node.entries), 0);
                return Ok(Some(fate));
            }
            self.write_node(page, &node)?;
            return Ok(Some(ChildFate::Alive));
        }
        for idx in 0..node.entries.len() {
            if !node.entries[idx].rect.contains(rect) {
                continue;
            }
            let child = node.entries[idx].payload as u32;
            match self.delete_rec(child, rect, rowid, orphans)? {
                None => continue,
                Some(ChildFate::Alive) => {
                    node.entries[idx].rect = self.read_node(child)?.mbr();
                }
                Some(ChildFate::Dissolved(entries, level)) => {
                    orphans.push((entries, level));
                    self.free(child)?;
                    node.entries.remove(idx);
                }
            }
            if !is_root && node.entries.len() < self.meta.min_fill as usize {
                let level = node.level;
                let fate = ChildFate::Dissolved(std::mem::take(&mut node.entries), level);
                return Ok(Some(fate));
            }
            self.write_node(page, &node)?;
            return Ok(Some(ChildFate::Alive));
        }
        Ok(None)
    }

    /// Collects all rowids whose stored rectangle satisfies `pred`
    /// against `query`.
    pub fn search(&self, pred: SpatialPredicate, query: &Rect2) -> Result<Vec<u64>> {
        let mut cursor = self.cursor(RectProbe {
            pred,
            query: *query,
        });
        let mut out = Vec::new();
        while let Some((_, rowid)) = self.cursor_next(&mut cursor)? {
            out.push(rowid);
        }
        Ok(out)
    }

    /// Computes quality statistics (nodes, fill, area, overlap) per
    /// level.
    pub fn quality(&self) -> Result<TreeQuality> {
        TreeQuality::compute(self, self.meta.root, self.meta.height)
    }

    /// Verifies structural invariants: entry rectangles equal child
    /// MBRs, levels decrease by one, non-root nodes respect minimum
    /// fill, and the leaf count matches the header.
    pub fn check(&self) -> Result<()> {
        let mut leaves = 0u64;
        self.check_rec(self.meta.root, None, &mut leaves)?;
        Ok(self.check_count(leaves)?)
    }

    fn check_rec(&self, page: u32, expect_level: Option<u16>, leaves: &mut u64) -> Result<Rect2> {
        let node = self.read_node(page)?;
        self.check_node(page, node.level, expect_level, node.entries.len())?;
        if node.is_leaf() {
            *leaves += node.entries.len() as u64;
            return Ok(node.mbr());
        }
        for e in &node.entries {
            let child_mbr = self.check_rec(e.payload as u32, Some(node.level - 1), leaves)?;
            if child_mbr != e.rect {
                return Err(RStarError::Corrupt(format!(
                    "page {page}: stale child rect {} vs {child_mbr}",
                    e.rect
                )));
            }
        }
        Ok(node.mbr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};

    fn tree(max_entries: usize) -> RStarTree {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        // Keep space and txn alive for the whole test.
        std::mem::forget(txn);
        std::mem::forget(sb);
        RStarTree::create(
            h,
            RStarOptions {
                max_entries,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn rect_for(i: i32) -> Rect2 {
        // A deterministic scatter of smallish rectangles.
        let x = (i * 37) % 1000;
        let y = (i * 59) % 1000;
        Rect2::new(x, x + 5 + i % 7, y, y + 3 + i % 11)
    }

    #[test]
    fn insert_and_exact_search() {
        let mut t = tree(8);
        for i in 0..300 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        assert_eq!(t.len(), 300);
        assert!(t.height() > 1);
        t.check().unwrap();
        // Every inserted rectangle is found by an overlap query on
        // itself.
        for i in 0..300 {
            let hits = t.search(SpatialPredicate::Overlap, &rect_for(i)).unwrap();
            assert!(hits.contains(&(i as u64)), "lost entry {i}");
        }
    }

    #[test]
    fn search_matches_linear_scan() {
        let mut t = tree(8);
        let n = 400;
        for i in 0..n {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let queries = [
            Rect2::new(0, 100, 0, 100),
            Rect2::new(500, 600, 200, 900),
            Rect2::new(-10, -1, -10, -1),
            Rect2::new(0, 1000, 0, 1000),
        ];
        for q in &queries {
            for pred in [
                SpatialPredicate::Overlap,
                SpatialPredicate::Within,
                SpatialPredicate::Contains,
                SpatialPredicate::Equal,
            ] {
                let mut expected: Vec<u64> = (0..n)
                    .filter(|&i| rect_for(i).eval(pred, q))
                    .map(|i| i as u64)
                    .collect();
                let mut got = t.search(pred, q).unwrap();
                expected.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expected, "{pred:?} {q}");
            }
        }
    }

    #[test]
    fn delete_removes_and_condenses() {
        let mut t = tree(8);
        let n = 250;
        for i in 0..n {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let mut condensed_any = false;
        for i in (0..n).step_by(2) {
            let out = t.delete(rect_for(i), i as u64).unwrap();
            assert!(out.found, "entry {i} missing");
            condensed_any |= out.condensed;
            // Deleting again reports not-found.
            assert!(!t.delete(rect_for(i), i as u64).unwrap().found);
        }
        assert!(condensed_any, "expected at least one condensation");
        assert_eq!(t.len(), (n / 2) as u64);
        t.check().unwrap();
        for i in 0..n {
            let hits = t.search(SpatialPredicate::Overlap, &rect_for(i)).unwrap();
            assert_eq!(hits.contains(&(i as u64)), i % 2 == 1, "entry {i}");
        }
    }

    #[test]
    fn delete_everything_shrinks_to_empty_root() {
        let mut t = tree(6);
        for i in 0..100 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        for i in 0..100 {
            assert!(t.delete(rect_for(i), i as u64).unwrap().found);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        t.check().unwrap();
        assert!(t
            .search(
                SpatialPredicate::Overlap,
                &Rect2::new(-10_000, 10_000, -10_000, 10_000)
            )
            .unwrap()
            .is_empty());
    }

    #[test]
    fn duplicate_rects_with_distinct_rowids() {
        let mut t = tree(8);
        let r = Rect2::new(5, 10, 5, 10);
        for id in 0..20u64 {
            t.insert(r, id).unwrap();
        }
        let mut hits = t.search(SpatialPredicate::Equal, &r).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, (0..20).collect::<Vec<_>>());
        assert!(t.delete(r, 13).unwrap().found);
        let hits = t.search(SpatialPredicate::Equal, &r).unwrap();
        assert_eq!(hits.len(), 19);
        assert!(!hits.contains(&13));
    }

    #[test]
    fn cursor_streams_all_results() {
        let mut t = tree(8);
        for i in 0..120 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let q = Rect2::new(0, 1000, 0, 1000);
        let mut cursor = t.cursor(RectProbe {
            pred: SpatialPredicate::Overlap,
            query: q,
        });
        let mut got = Vec::new();
        while let Some((_, id)) = t.cursor_next(&mut cursor).unwrap() {
            got.push(id);
        }
        got.sort_unstable();
        assert_eq!(got, (0..120).collect::<Vec<_>>());
        // A restart re-walks the tree but never re-returns rows the
        // cursor already emitted (the Section 5.5 restart rule), so a
        // fully drained cursor stays drained.
        t.cursor_restart(&mut cursor);
        let mut again = 0;
        while t.cursor_next(&mut cursor).unwrap().is_some() {
            again += 1;
        }
        assert_eq!(again, 0);
    }

    #[test]
    fn cursor_restart_does_not_replay_emitted_rows() {
        let mut t = tree(8);
        for i in 0..120 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let q = Rect2::new(0, 1000, 0, 1000);
        let mut cursor = t.cursor(RectProbe {
            pred: SpatialPredicate::Overlap,
            query: q,
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            let (_, id) = t.cursor_next(&mut cursor).unwrap().expect("tree has rows");
            got.push(id);
        }
        // Condense mid-scan, deleting only rows not yet returned.
        let mut condensed = false;
        for i in 0..120u64 {
            if got.contains(&i) {
                continue;
            }
            if t.delete(rect_for(i as i32), i).unwrap().condensed {
                condensed = true;
                break;
            }
        }
        assert!(condensed);
        t.cursor_restart(&mut cursor);
        while let Some((_, id)) = t.cursor_next(&mut cursor).unwrap() {
            got.push(id);
        }
        let unique: std::collections::HashSet<u64> = got.iter().copied().collect();
        assert_eq!(
            unique.len(),
            got.len(),
            "restart re-returned rows already emitted before the condense"
        );
        for id in t.search(SpatialPredicate::Overlap, &q).unwrap() {
            assert!(unique.contains(&id), "row {id} lost across restart");
        }
    }

    #[test]
    fn reinsert_disabled_still_correct() {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut t = RStarTree::create(
            h,
            RStarOptions {
                max_entries: 8,
                reinsert_pct: 0,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        t.check().unwrap();
        for i in 0..200 {
            assert!(t
                .search(SpatialPredicate::Overlap, &rect_for(i))
                .unwrap()
                .contains(&(i as u64)));
        }
        drop(t);
        txn.commit().unwrap();
    }

    #[test]
    fn quality_reports_levels() {
        let mut t = tree(8);
        for i in 0..300 {
            t.insert(rect_for(i), i as u64).unwrap();
        }
        let q = t.quality().unwrap();
        assert_eq!(q.levels.len() as u32, t.height());
        assert!(q.levels[0].nodes > 1, "multiple leaves expected");
        assert!(q.levels[0].entries >= 300);
    }
}
