//! The R\*-tree's page layout in its large object: the node codec and
//! the R\*-tree's own header fields, kept by the shared
//! [`NodeStore`].

use crate::geom::Rect2;
use crate::node::Node;
use crate::search::RectProbe;
use crate::Result;
use grt_sbspace::page::{get_u32, put_u32, PageBuf};
use grt_sbspace::{NodeCodec, NodeStore, PageSource, PAGE_SIZE};

/// The R\*-tree's own header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RStarParams {
    /// Maximum entries per node (M).
    pub max_entries: u32,
    /// Percent of entries removed by forced reinsertion (0 disables).
    pub reinsert_pct: u32,
}

impl NodeCodec for Node {
    const MAGIC: &'static [u8; 4] = b"RSTH";
    type Params = RStarParams;
    type Node = Node;
    type Probe = RectProbe;

    fn encode(node: &Node) -> Result<PageBuf> {
        Ok(node.encode())
    }
    fn decode(page: &[u8; PAGE_SIZE]) -> Result<Node> {
        Node::decode(page)
    }
    fn only_child(node: &Node) -> Option<u32> {
        match node.entries.as_slice() {
            [only] if !node.is_leaf() => Some(only.payload as u32),
            _ => None,
        }
    }
    fn put_params(p: &RStarParams, tail: &mut [u8]) {
        put_u32(tail, 0, p.max_entries);
        put_u32(tail, 4, p.reinsert_pct);
    }
    fn get_params(tail: &[u8]) -> RStarParams {
        RStarParams {
            max_entries: get_u32(tail, 0),
            reinsert_pct: get_u32(tail, 4),
        }
    }
}

/// The root node's minimum bounding rectangle, or `None` for an empty
/// tree — the planner's selectivity input, on the locked tree or a
/// snapshot reader alike.
pub fn root_mbr<S: PageSource>(tree: &NodeStore<Node, S>) -> Result<Option<Rect2>> {
    if tree.is_empty() {
        return Ok(None);
    }
    Ok(Some(tree.read_node(tree.meta.root)?.mbr()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sbspace::page::NO_PAGE;
    use grt_sbspace::store::{decode_header, encode_header};
    use grt_sbspace::Header;

    #[test]
    fn meta_roundtrip() {
        let m = Header {
            root: 3,
            height: 2,
            count: 12345,
            min_fill: 20,
            free_head: NO_PAGE,
            params: RStarParams {
                max_entries: 50,
                reinsert_pct: 30,
            },
        };
        let page = encode_header::<Node>(&m);
        assert_eq!(decode_header::<Node>(&page).unwrap(), m);
    }
}
