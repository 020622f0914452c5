//! GR-tree searches on the shared scaffold of
//! [`grt_sbspace::search`]: the [`GrProbe`] that tests node entries
//! with the NOW/UC resolution algorithm, and the [`GrTreeReader`]
//! frozen view snapshot statements read through. The locked
//! [`GrTree`] is searched the same way, serially or in parallel.
//!
//! A probe captures the current time at creation and keeps it for the
//! whole scan — the paper's per-statement current-time rule
//! (Section 5.4).

use crate::entry::GrNode;
use crate::meta::GrMeta;
use crate::tree::GrTree;
use crate::{GrError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{LoHandle, LoReader, SearchTree, TreeProbe, PAGE_SIZE};
use grt_temporal::{Day, Predicate, Region, TimeExtent, VtEnd};

/// One GR-tree search: the predicate, the query extent, and the current
/// time its `NOW`/`UC` variables resolve against.
#[derive(Debug, Clone, Copy)]
pub struct GrProbe {
    pred: Predicate,
    query_region: Region,
    ct: Day,
}

impl GrProbe {
    /// A probe for `pred` against `query` at current time `ct`.
    pub fn new(pred: Predicate, query: TimeExtent, ct: Day) -> GrProbe {
        GrProbe {
            pred,
            query_region: query.region(ct),
            ct,
        }
    }
}

impl TreeProbe for GrProbe {
    type Hit = (TimeExtent, u64);
    /// Rowid plus encoded extent: an update gives the same rowid a new
    /// extent, and that counts as a new entry.
    type Key = (u64, [u8; 16]);
    type Error = GrError;

    fn visit(
        &self,
        page: &[u8; PAGE_SIZE],
        metrics: &TreeMetrics,
        kids: &mut Vec<u32>,
        hits: &mut Vec<(TimeExtent, u64)>,
    ) -> Result<()> {
        match GrNode::decode(page)? {
            GrNode::Leaf(entries) => {
                for e in entries {
                    if matches!(e.spec().vt_end, VtEnd::Now) {
                        metrics.now_resolutions.inc();
                    }
                    if self
                        .pred
                        .eval_regions(&e.extent.region(self.ct), &self.query_region)
                    {
                        hits.push((e.extent, e.rowid));
                    }
                }
            }
            GrNode::Internal { entries, .. } => {
                for e in entries {
                    if e.spec.hidden {
                        metrics.hidden_resolutions.inc();
                    }
                    if matches!(e.spec.vt_end, VtEnd::Now) {
                        metrics.now_resolutions.inc();
                    }
                    // Descend only where the bounding region could
                    // contain a qualifying child — the NOW/UC resolution
                    // algorithm applied to the internal entry.
                    if self
                        .pred
                        .consistent(&e.spec.resolve(self.ct), &self.query_region)
                    {
                        kids.push(e.child);
                    }
                }
            }
        }
        Ok(())
    }

    fn key(&(extent, rowid): &(TimeExtent, u64)) -> (u64, [u8; 16]) {
        (rowid, extent.encode_array())
    }
}

impl SearchTree for GrTree {
    type Source = LoHandle;
    type Probe = GrProbe;

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

/// A `Send + Sync` read-only handle on a disk-resident GR-tree: a
/// space-snapshot [`LoReader`] plus the header decoded at creation,
/// valid while that snapshot stays open — the engine's lock-free read
/// path. The view is frozen, so a concurrent condense never moves nodes
/// out from under its scans.
pub struct GrTreeReader {
    reader: LoReader,
    meta: GrMeta,
    metrics: TreeMetrics,
}

impl GrTreeReader {
    /// Opens a reader directly over a large-object view, decoding the
    /// tree header from page 0. No tree (or LO-level lock) is involved:
    /// this is how a snapshot read mounts an index.
    pub fn open(reader: LoReader, metrics: TreeMetrics) -> Result<GrTreeReader> {
        let meta = GrMeta::decode(&*reader.read_page_pinned(0)?)?;
        Ok(GrTreeReader {
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

    /// The root node's bounding region resolved at `ct`, or `None` for
    /// an empty tree — the planner's selectivity input, mirroring
    /// [`GrTree::root_bound`].
    pub fn root_bound(&self, ct: Day) -> Result<Option<Region>> {
        self.meta.root_bound(&self.reader, ct)
    }
}

impl SearchTree for GrTreeReader {
    type Source = LoReader;
    type Probe = GrProbe;

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
