//! The index header page (logical page 0 of the large object).

use crate::geom::Rect2;
use crate::node::Node;
use crate::{RStarError, Result};
use grt_sbspace::page::{get_u32, get_u64, page_from_slice, put_u32, put_u64, PageBuf, PAGE_SIZE};
use grt_sbspace::PageSource;

const MAGIC: &[u8; 4] = b"RSTH";
/// "No page" sentinel in the free chain.
pub const NO_PAGE: u32 = u32::MAX;

/// Decoded header of an R\*-tree large object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
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
}

impl Meta {
    /// The root node's minimum bounding rectangle, read through `src`,
    /// or `None` for an empty tree.
    pub(crate) fn root_mbr(&self, src: &impl PageSource) -> Result<Option<Rect2>> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(
            Node::decode(&*src.read_page_pinned(self.root)?)?.mbr(),
        ))
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
        page_from_slice(&buf)
    }

    /// Parses a page image.
    pub fn decode(buf: &[u8; PAGE_SIZE]) -> Result<Meta> {
        if &buf[0..4] != MAGIC {
            return Err(RStarError::Corrupt("bad index header magic".into()));
        }
        Ok(Meta {
            root: get_u32(buf.as_slice(), 4),
            height: get_u32(buf.as_slice(), 8),
            count: get_u64(buf.as_slice(), 12),
            max_entries: get_u32(buf.as_slice(), 20),
            min_fill: get_u32(buf.as_slice(), 24),
            free_head: get_u32(buf.as_slice(), 28),
            reinsert_pct: get_u32(buf.as_slice(), 32),
        })
    }
}

/// A freed node page awaiting reuse.
pub fn encode_free(next: u32) -> PageBuf {
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(b"RSTF");
    put_u32(&mut buf, 4, next);
    page_from_slice(&buf)
}

/// Decodes the next pointer of a freed node page.
pub fn decode_free(buf: &[u8; PAGE_SIZE]) -> Result<u32> {
    if &buf[0..4] != b"RSTF" {
        return Err(RStarError::Corrupt("bad free node magic".into()));
    }
    Ok(get_u32(buf.as_slice(), 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let m = Meta {
            root: 3,
            height: 2,
            count: 12345,
            max_entries: 50,
            min_fill: 20,
            free_head: NO_PAGE,
            reinsert_pct: 30,
        };
        assert_eq!(Meta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip() {
        assert_eq!(decode_free(&encode_free(9)).unwrap(), 9);
        assert!(decode_free(&grt_sbspace::page::zeroed_page()).is_err());
    }
}
