//! A **generalized search tree** — the paper's Section 7 future work.
//!
//! "Following the ideas of Hellerstein et al. \[HNP95\] and Aoki \[AOK98\],
//! a generic extendible tree-based access method ... could be integrated
//! into the kernel of the DBMS. Such a generic access method would
//! support the broad class of tree-based access methods by providing a
//! simple, high-level extension interface that isolates the primitive
//! operations required to construct new access methods. It is also
//! possible to implement such a generic access method as a DataBlade
//! and use specially designed operator classes to extend it."
//!
//! This crate does exactly that:
//!
//! * [`GistExtension`] is the high-level extension interface — the four
//!   GiST primitives `consistent`, `union`, `penalty`, `pick_split`
//!   over an opaque, variable-length key;
//! * [`GistTree`] is the generic, disk-resident tree skeleton over an
//!   sbspace large object (one node per page, like every index in this
//!   repository) — insertion, deletion with condensation, and
//!   consistency checking, all extension-agnostic — on the node store
//!   and search scaffold every tree in this repository shares;
//! * [`ext`] provides two classic instantiations: an interval tree over
//!   `i64` ranges (B-tree-flavoured) and a 2-D rectangle tree
//!   (R-tree-flavoured);
//! * [`am`] wraps the interval instantiation as a full DataBlade-style
//!   secondary access method (`gist_am`) pluggable into the `ids`
//!   engine, with its own opaque type and strategy function, on the
//!   blade crate's shared adaptor — closing the loop on the paper's
//!   "as a DataBlade" suggestion.

pub mod am;
pub mod ext;
pub mod node;
pub mod tree;

pub use ext::{IntRange, IntRangeExt, RectExt, RectKey};
pub use tree::{GistExtension, GistNodes, GistProbe, GistTree, GistTreeOptions};

/// Errors from the GiST layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GistError {
    /// Underlying storage failure.
    Storage(grt_sbspace::SbError),
    /// The large object does not contain a valid tree.
    Corrupt(String),
    /// API misuse or a misbehaving extension.
    Usage(String),
}

impl From<grt_sbspace::SbError> for GistError {
    fn from(e: grt_sbspace::SbError) -> Self {
        GistError::Storage(e)
    }
}

impl std::fmt::Display for GistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GistError::Storage(e) => write!(f, "storage: {e}"),
            GistError::Corrupt(m) => write!(f, "corrupt gist: {m}"),
            GistError::Usage(m) => write!(f, "usage: {m}"),
        }
    }
}

impl std::error::Error for GistError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GistError>;
