//! R\*-tree searches on the shared scaffold of
//! [`grt_sbspace::search`]: the [`RectProbe`] that tests node
//! rectangles. The locked [`RStarTree`](crate::RStarTree) and the
//! [`RStarTreeReader`] frozen view snapshot statements read through are
//! searched the same way, serially or in parallel.

use crate::geom::{Rect2, SpatialPredicate};
use crate::node::Node;
use crate::{RStarError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{TreeProbe, TreeReader, PAGE_SIZE};

/// One R\*-tree search: a spatial predicate against a query rectangle.
#[derive(Debug, Clone, Copy)]
pub struct RectProbe {
    /// The rectangle test.
    pub pred: SpatialPredicate,
    /// The query rectangle.
    pub query: Rect2,
}

impl TreeProbe for RectProbe {
    type Hit = (Rect2, u64);
    type Key = (u64, [i32; 4]);
    type Error = RStarError;

    fn visit(
        &self,
        page: &[u8; PAGE_SIZE],
        _metrics: &TreeMetrics,
        kids: &mut Vec<u32>,
        hits: &mut Vec<(Rect2, u64)>,
    ) -> Result<()> {
        let node = Node::decode(page)?;
        for e in node.entries {
            if node.level == 0 {
                if e.rect.eval(self.pred, &self.query) {
                    hits.push((e.rect, e.payload));
                }
            } else if e.rect.consistent(self.pred, &self.query) {
                kids.push(e.payload as u32);
            }
        }
        Ok(())
    }

    fn key(&(r, payload): &(Rect2, u64)) -> (u64, [i32; 4]) {
        (payload, [r.x1, r.x2, r.y1, r.y2])
    }
}

/// The frozen view snapshot statements read an R\*-tree through.
pub type RStarTreeReader = TreeReader<Node>;
