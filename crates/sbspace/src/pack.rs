//! Sort-tile-recursive (STR) packing shared by the trees' bulk loaders:
//! which entries share a leaf, and how packed nodes group into parents
//! level by level. The trees supply only their entry types, node
//! encodings and bounds.

use std::ops::Range;

/// Orders `entries` for STR packing and returns the leaf runs: sorted by
/// the first `center` coordinate, cut into about √(leaves) vertical
/// slabs, each slab sorted by the second coordinate and cut into runs
/// of at most `cap` entries. Every run holds at least `min` entries
/// when the input does.
pub fn str_leaf_runs<E>(
    entries: &mut [E],
    cap: usize,
    min: usize,
    center: impl Fn(&E) -> (i64, i64),
) -> Vec<Range<usize>> {
    entries.sort_by_key(|e| center(e).0);
    let n = entries.len();
    let slabs = (n.div_ceil(cap) as f64).sqrt().ceil() as usize;
    let per_slab = n.div_ceil(slabs.max(1));
    let mut runs = Vec::new();
    for slab in balanced_runs(n, per_slab.max(1), min) {
        entries[slab.clone()].sort_by_key(|e| center(e).1);
        let base = slab.start;
        runs.extend(balanced_runs(slab.len(), cap, min).map(|r| base + r.start..base + r.end));
    }
    runs
}

/// Builds the levels above packed leaves: groups `children` (one entry
/// per written node) into runs, writes a parent for each with
/// `parent(level, run)`, and repeats until one entry remains. Returns
/// that root entry and the tree height.
pub fn pack_levels<C, E>(
    mut children: Vec<C>,
    cap: usize,
    min: usize,
    mut parent: impl FnMut(u16, &[C]) -> Result<C, E>,
) -> Result<(C, u32), E> {
    let mut level = 1u16;
    while children.len() > 1 {
        children = balanced_runs(children.len(), cap, min)
            .map(|run| parent(level, &children[run]))
            .collect::<Result<_, _>>()?;
        level += 1;
    }
    let root = children.pop().expect("packing needs at least one node");
    Ok((root, level as u32))
}

/// Splits `n` items into runs of at most `cap`, each of at least `min`
/// items (when `n >= min`): a short final run borrows from its
/// predecessor so no packed node violates the minimum-fill invariant.
fn balanced_runs(n: usize, cap: usize, min: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= n {
            return None;
        }
        let remaining = n - start;
        let take = if remaining > cap && remaining - cap < min && remaining >= 2 * min {
            // Leave enough behind for a legal final run.
            remaining - min
        } else {
            remaining.min(cap)
        };
        let end = start + take.min(cap).max(1);
        let run = start..end;
        start = end;
        Some(run)
    })
}
