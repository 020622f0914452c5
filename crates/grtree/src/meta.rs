//! The GR-tree's page layout in its large object: the node codec and
//! the GR-tree's own header fields, kept by the shared
//! [`NodeStore`].

use crate::entry::GrNode;
use crate::search::GrProbe;
use crate::Result;
use grt_sbspace::page::{get_u32, put_u32, PageBuf};
use grt_sbspace::{NodeCodec, NodeStore, PageSource, PAGE_SIZE};
use grt_temporal::{Day, Region, RegionSpec, VtEnd};

/// The GR-tree's own header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrParams {
    /// Maximum entries per node (M).
    pub max_entries: u32,
    /// Percent of entries removed by forced reinsertion (0 disables).
    pub reinsert_pct: u32,
    /// The insertion algorithms' *time parameter*: penalty metrics are
    /// evaluated at `ct + time_param` so growing regions are charged for
    /// their near-future extent.
    pub time_param: u32,
    /// Ablation switch: degrade stair-shaped bounds to growing
    /// rectangles (the `Rectangle` flag set everywhere), isolating the
    /// benefit of the GR-tree's exact stair encoding.
    pub rectangle_only: bool,
}

impl GrParams {
    /// A node's bounding region, degraded to a growing rectangle when
    /// the `rectangle_only` ablation is on (stairs keep their `NOW`
    /// timestamps but the `Rectangle` flag inflates them to squares).
    pub(crate) fn node_bound(&self, node: &GrNode, ct: Day) -> RegionSpec {
        let mut b = node.bound(ct);
        if self.rectangle_only && matches!(b.vt_end, VtEnd::Now) {
            b.rect = true;
        }
        b
    }
}

impl NodeCodec for GrNode {
    const MAGIC: &'static [u8; 4] = b"GRTH";
    type Params = GrParams;
    type Node = GrNode;
    type Probe = GrProbe;

    fn encode(node: &GrNode) -> Result<PageBuf> {
        Ok(node.encode())
    }
    fn decode(page: &[u8; PAGE_SIZE]) -> Result<GrNode> {
        GrNode::decode(page)
    }
    fn only_child(node: &GrNode) -> Option<u32> {
        match node {
            GrNode::Internal { entries, .. } if entries.len() == 1 => Some(entries[0].child),
            _ => None,
        }
    }
    fn put_params(p: &GrParams, tail: &mut [u8]) {
        put_u32(tail, 0, p.max_entries);
        put_u32(tail, 4, p.reinsert_pct);
        put_u32(tail, 8, p.time_param);
        put_u32(tail, 12, p.rectangle_only as u32);
    }
    fn get_params(tail: &[u8]) -> GrParams {
        GrParams {
            max_entries: get_u32(tail, 0),
            reinsert_pct: get_u32(tail, 4),
            time_param: get_u32(tail, 8),
            rectangle_only: get_u32(tail, 12) != 0,
        }
    }
}

/// The root node's bounding region resolved at `ct`, or `None` for an
/// empty tree — the planner's selectivity input, on the locked tree or
/// a snapshot reader alike.
pub fn root_bound<S: PageSource>(tree: &NodeStore<GrNode, S>, ct: Day) -> Result<Option<Region>> {
    if tree.is_empty() {
        return Ok(None);
    }
    let node = tree.read_node(tree.meta.root)?;
    Ok(Some(tree.meta.params.node_bound(&node, ct).resolve(ct)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::store::{decode_header, encode_header};
    use grt_sbspace::Header;

    #[test]
    fn meta_roundtrip() {
        let m = Header {
            root: 9,
            height: 3,
            count: 777,
            min_fill: 12,
            free_head: 4,
            params: GrParams {
                max_entries: 32,
                reinsert_pct: 30,
                time_param: 16,
                rectangle_only: true,
            },
        };
        let page = encode_header::<GrNode>(&m);
        assert_eq!(decode_header::<GrNode>(&page).unwrap(), m);
    }
}
