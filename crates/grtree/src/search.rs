//! GR-tree searches on the shared scaffold of
//! [`grt_sbspace::search`]: the [`GrProbe`] that tests node entries
//! with the NOW/UC resolution algorithm. The locked
//! [`GrTree`](crate::GrTree) and the [`GrTreeReader`] frozen view
//! snapshot statements read through are searched the same way,
//! serially or in parallel.
//!
//! A probe captures the current time at creation and keeps it for the
//! whole scan — the paper's per-statement current-time rule
//! (Section 5.4).

use crate::entry::GrNode;
use crate::{GrError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::{TreeProbe, TreeReader, PAGE_SIZE};
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

/// The frozen view snapshot statements read a GR-tree through.
pub type GrTreeReader = TreeReader<GrNode>;
