//! R\*-tree searches on the shared scaffold of
//! [`grt_sbspace::search`]: the [`RectProbe`] that tests node
//! rectangles, and the [`RStarTreeReader`] frozen view snapshot
//! statements read through. The locked [`RStarTree`] is searched the
//! same way, serially or in parallel.

use crate::geom::{Rect2, SpatialPredicate};
use crate::meta::Meta;
use crate::node::Node;
use crate::tree::RStarTree;
use crate::{RStarError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoHandle, LoReader, SearchTree, TreeProbe, PAGE_SIZE};

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

impl SearchTree for RStarTree {
    type Source = LoHandle;
    type Probe = RectProbe;

    fn source(&self) -> &LoHandle {
        &self.lo
    }
    fn root(&self) -> u32 {
        self.meta.root
    }
    fn height(&self) -> u32 {
        self.meta.height
    }
    fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }
}

/// A `Send + Sync` read-only handle on a disk-resident R\*-tree: a
/// space-snapshot [`LoReader`] plus the header decoded at creation,
/// valid while that snapshot stays open — the engine's lock-free read
/// path. The view is frozen, so a concurrent condense never moves nodes
/// out from under its scans.
pub struct RStarTreeReader {
    reader: LoReader,
    meta: Meta,
    metrics: TreeMetrics,
}

impl RStarTreeReader {
    /// Opens a reader directly over a large-object view, decoding the
    /// tree header from page 0. No tree (or LO-level lock) is involved:
    /// this is how a snapshot read mounts an index.
    pub fn open(reader: LoReader, metrics: TreeMetrics) -> Result<RStarTreeReader> {
        let meta = Meta::decode(&*reader.read_page_pinned(0)?)?;
        Ok(RStarTreeReader {
            reader,
            meta,
            metrics,
        })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// The root node's minimum bounding rectangle, or `None` for an
    /// empty tree — the planner's selectivity input, mirroring
    /// [`RStarTree::root_mbr`].
    pub fn root_mbr(&self) -> Result<Option<Rect2>> {
        self.meta.root_mbr(&self.reader)
    }
}

impl SearchTree for RStarTreeReader {
    type Source = LoReader;
    type Probe = RectProbe;

    fn source(&self) -> &LoReader {
        &self.reader
    }
    fn root(&self) -> u32 {
        self.meta.root
    }
    fn height(&self) -> u32 {
        self.meta.height
    }
    fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }
}
