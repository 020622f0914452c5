//! Bulk loading and vacuuming.
//!
//! Section 5.5 of the paper: "Sometimes vacuuming will have to be
//! performed to delete all data that is more than, for example, five
//! years old. ... A straightforward solution is to drop the index and
//! then create it from scratch using a bulk loading algorithm." This
//! module provides both pieces: an STR-style bottom-up bulk load over
//! region centres, and a rebuild-based vacuum.

use crate::entry::{GrNode, InternalEntry, LeafEntry};
use crate::tree::{GrTree, GrTreeOptions};
use crate::Result;
use grt_sbspace::pack::{pack_levels, str_leaf_runs};
use grt_sbspace::{LoHandle, SearchTree};
use grt_temporal::{bound_entries, Day, RegionSpec, TimeExtent, TtEnd};

/// Bulk-loads a GR-tree from `entries` into an empty large object using
/// sort-tile-recursive packing over resolved region centres at `ct`.
pub fn bulk_load(
    lo: LoHandle,
    mut entries: Vec<LeafEntry>,
    ct: Day,
    opts: GrTreeOptions,
) -> Result<GrTree> {
    let mut tree = GrTree::create(lo, opts)?;
    if entries.is_empty() {
        return Ok(tree);
    }
    // Target fill: ~90% of fan-out, the classical packing compromise.
    let cap = (tree.max_entries() * 9 / 10).max(2);
    let min = tree.min_fill();
    // STR over region centres resolved at `ct`: tt-centre slabs, runs
    // by vt-centre.
    let runs = str_leaf_runs(&mut entries, cap, min, |e| {
        let m = e.extent.region(ct).mbr();
        (
            m.tt1.0 as i64 + m.tt2.0 as i64,
            m.vt1.0 as i64 + m.vt2.0 as i64,
        )
    });
    let mut append = |node: GrNode| -> Result<InternalEntry> {
        let spec = node.bound(ct);
        let child = tree.bulk_append(&node)?;
        Ok(InternalEntry { spec, child })
    };
    let leaves = runs
        .into_iter()
        .map(|run| append(GrNode::Leaf(entries[run].to_vec())))
        .collect::<Result<Vec<_>>>()?;
    let (root, height) = pack_levels(leaves, cap, min, |level, kids| {
        append(GrNode::Internal {
            level,
            entries: kids.to_vec(),
        })
    })?;
    tree.bulk_finish(root.child, height, entries.len() as u64)?;
    Ok(tree)
}

/// Rebuild-based vacuum: keeps only the entries `keep` accepts,
/// bulk-loading them into a fresh large object. Returns the new tree and
/// the number of removed entries.
pub fn vacuum_rebuild(
    tree: GrTree,
    fresh_lo: LoHandle,
    ct: Day,
    mut keep: impl FnMut(&LeafEntry) -> bool,
) -> Result<(GrTree, u64)> {
    let survivors = collect_leaves(&tree, |e| keep(e))?;
    let removed = tree.len() - survivors.len() as u64;
    let opts = tree.options();
    drop(tree.into_lo()?);
    let new_tree = bulk_load(fresh_lo, survivors, ct, opts)?;
    Ok((new_tree, removed))
}

/// The standard vacuum predicate of the paper's example: keep entries
/// whose transaction time is still open or ended within the horizon.
pub fn not_older_than(cutoff: Day) -> impl FnMut(&LeafEntry) -> bool {
    move |e: &LeafEntry| match e.extent.tt_end {
        TtEnd::Uc => true,
        TtEnd::Ground(end) => end >= cutoff,
    }
}

/// Scans every leaf entry, returning those the filter accepts.
pub fn collect_leaves(
    tree: &GrTree,
    mut filter: impl FnMut(&LeafEntry) -> bool,
) -> Result<Vec<LeafEntry>> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(page) = stack.pop() {
        match tree.read_node(page)? {
            GrNode::Leaf(entries) => out.extend(entries.into_iter().filter(|e| filter(e))),
            GrNode::Internal { entries, .. } => stack.extend(entries.iter().map(|e| e.child)),
        }
    }
    Ok(out)
}

/// The bound of a whole entry set — exposed for tests that validate the
/// bulk-loaded root.
pub fn bound_of(entries: &[LeafEntry], ct: Day) -> RegionSpec {
    let specs: Vec<RegionSpec> = entries.iter().map(LeafEntry::spec).collect();
    bound_entries(&specs, ct)
}

/// Convenience: bulk-load from bare `(extent, rowid)` pairs.
pub fn bulk_load_pairs(
    lo: LoHandle,
    pairs: &[(u64, TimeExtent)],
    ct: Day,
    opts: GrTreeOptions,
) -> Result<GrTree> {
    let entries = pairs
        .iter()
        .map(|(rowid, extent)| LeafEntry {
            extent: *extent,
            rowid: *rowid,
        })
        .collect();
    bulk_load(lo, entries, ct, opts)
}
