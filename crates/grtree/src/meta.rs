//! The GR-tree header page (logical page 0 of the large object).

use crate::entry::GrNode;
use crate::{GrError, Result};
use grt_sbspace::page::{get_u32, get_u64, page_from_slice, put_u32, put_u64, PageBuf, PAGE_SIZE};
use grt_sbspace::PageSource;
use grt_temporal::{Day, Region, RegionSpec, VtEnd};

const MAGIC: &[u8; 4] = b"GRTH";
/// "No page" sentinel in the free chain.
pub const NO_PAGE: u32 = u32::MAX;

/// Decoded header of a GR-tree large object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrMeta {
    /// Logical page of the root node.
    pub root: u32,
    /// Tree height: 1 when the root is a leaf.
    pub height: u32,
    /// Number of indexed entries.
    pub count: u64,
    /// Maximum entries per node (M).
    pub max_entries: u32,
    /// Minimum entries per non-root node (m).
    pub min_fill: u32,
    /// Within-object free-page chain of condensed nodes.
    pub free_head: u32,
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

impl GrMeta {
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

    /// The root node's bounding region resolved at `ct`, read through
    /// `src`, or `None` for an empty tree.
    pub(crate) fn root_bound(&self, src: &impl PageSource, ct: Day) -> Result<Option<Region>> {
        if self.count == 0 {
            return Ok(None);
        }
        let node = GrNode::decode(&*src.read_page_pinned(self.root)?)?;
        Ok(Some(self.node_bound(&node, ct).resolve(ct)))
    }

    /// Serialises into a page image.
    pub fn encode(&self) -> PageBuf {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(MAGIC);
        put_u32(&mut buf, 4, self.root);
        put_u32(&mut buf, 8, self.height);
        put_u64(&mut buf, 12, self.count);
        put_u32(&mut buf, 20, self.max_entries);
        put_u32(&mut buf, 24, self.min_fill);
        put_u32(&mut buf, 28, self.free_head);
        put_u32(&mut buf, 32, self.reinsert_pct);
        put_u32(&mut buf, 36, self.time_param);
        put_u32(&mut buf, 40, self.rectangle_only as u32);
        page_from_slice(&buf)
    }

    /// Parses a page image.
    pub fn decode(buf: &[u8; PAGE_SIZE]) -> Result<GrMeta> {
        if &buf[0..4] != MAGIC {
            return Err(GrError::Corrupt("bad gr-tree header magic".into()));
        }
        Ok(GrMeta {
            root: get_u32(buf.as_slice(), 4),
            height: get_u32(buf.as_slice(), 8),
            count: get_u64(buf.as_slice(), 12),
            max_entries: get_u32(buf.as_slice(), 20),
            min_fill: get_u32(buf.as_slice(), 24),
            free_head: get_u32(buf.as_slice(), 28),
            reinsert_pct: get_u32(buf.as_slice(), 32),
            time_param: get_u32(buf.as_slice(), 36),
            rectangle_only: get_u32(buf.as_slice(), 40) != 0,
        })
    }
}

/// A freed node page awaiting reuse.
pub fn encode_free(next: u32) -> PageBuf {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(b"GRTF");
    put_u32(&mut buf, 4, next);
    page_from_slice(&buf)
}

/// Decodes the next pointer of a freed node page.
pub fn decode_free(buf: &[u8; PAGE_SIZE]) -> Result<u32> {
    if &buf[0..4] != b"GRTF" {
        return Err(GrError::Corrupt("bad free node magic".into()));
    }
    Ok(get_u32(buf.as_slice(), 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let m = GrMeta {
            root: 9,
            height: 3,
            count: 777,
            max_entries: 32,
            min_fill: 12,
            free_head: 4,
            reinsert_pct: 30,
            time_param: 16,
            rectangle_only: false,
        };
        assert_eq!(GrMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip() {
        assert_eq!(decode_free(&encode_free(3)).unwrap(), 3);
        assert!(decode_free(&grt_sbspace::page::zeroed_page()).is_err());
    }
}
