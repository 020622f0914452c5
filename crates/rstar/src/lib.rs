//! The R\*-tree baseline.
//!
//! The GR-tree "is based on the R\*-tree" (Beckmann et al., SIGMOD
//! 1990), and the paper's performance claims are relative to R\*-tree
//! adaptations for bitemporal data. This crate provides:
//!
//! * a complete disk-resident R\*-tree over 2-D integer rectangles,
//!   stored — like the GR-tree DataBlade — inside a single sbspace
//!   large object, one node per page (ChooseSubtree with overlap
//!   enlargement at the leaf level, margin-driven split-axis selection,
//!   forced reinsertion, deletion with tree condensation);
//! * the two classical adaptations used as comparison points for
//!   indexing now-relative data with an ordinary spatial index
//!   ([`bitemporal`]): substituting `UC`/`NOW` with the **maximum
//!   timestamp** and substituting them with the **current time** at
//!   insertion, both of which require an exact refinement step and
//!   whose bounding rectangles are either enormous (max-timestamp) or
//!   stale (current-time) — exactly the dead-space/overlap pathologies
//!   that motivate the GR-tree.

pub mod bitemporal;
pub mod bulk;
pub mod geom;
pub mod meta;
pub mod node;
pub mod search;
pub mod stats;
pub mod tree;

pub use bulk::{bulk_load, bulk_load_pairs};
pub use geom::{Rect2, SpatialPredicate};
pub use meta::{root_mbr, RStarParams};
pub use search::{RStarTreeReader, RectProbe};
pub use stats::TreeQuality;
pub use tree::{RStarOptions, RStarTree};

/// Errors from the R\*-tree layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RStarError {
    /// Underlying storage failure.
    Storage(grt_sbspace::SbError),
    /// The large object does not contain a valid R*-tree.
    Corrupt(String),
    /// API misuse.
    Usage(String),
}

impl From<grt_sbspace::SbError> for RStarError {
    fn from(e: grt_sbspace::SbError) -> Self {
        RStarError::Storage(e)
    }
}

impl std::fmt::Display for RStarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RStarError::Storage(e) => write!(f, "storage: {e}"),
            RStarError::Corrupt(m) => write!(f, "corrupt r*-tree: {m}"),
            RStarError::Usage(m) => write!(f, "usage: {m}"),
        }
    }
}

impl std::error::Error for RStarError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, RStarError>;
