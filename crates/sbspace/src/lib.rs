//! A stand-in for Informix's *sbspace*: a page-backed store of smart
//! large objects (BLOBs) with the concurrency and recovery semantics the
//! paper analyses in Section 5.3.
//!
//! The paper's GR-tree DataBlade stores each index inside **one smart
//! large object** in an sbspace. The properties it relies on — and
//! criticises — are reproduced here:
//!
//! * automatic **two-phase locking at the large-object level**: a lock
//!   is acquired when an LO is opened for reading or writing and,
//!   depending on the lock mode and the transaction's isolation level,
//!   released either when the LO is closed or at transaction end;
//! * no sub-LO locking: a DataBlade developer "has no control over the
//!   locking of large objects, nor over logging and recovery", so
//!   R-link-style concurrency protocols are impossible — which this
//!   crate's benchmarks make measurable;
//! * crash safety via a **write-ahead log**: data-page writes are
//!   buffered (no-steal) and forced at commit after their redo images
//!   reach the log; space-allocation metadata is logged in the same
//!   ordered log stream, with per-transaction compensation so an abort
//!   or crash frees what an unfinished transaction allocated.
//!
//! The store runs over an in-memory backend (for tests and benchmarks)
//! or a file backend (for recovery tests), with optional fault
//! injection. A shared [`IoStats`] counter block exposes logical and
//! physical I/O, which the benchmark harness uses as its platform-
//! independent cost metric.

pub mod backend;
pub mod buffer;
pub(crate) mod group;
pub mod lo;
pub mod lock;
pub mod page;
pub mod space;
pub mod stats;
pub mod txn;
pub mod wal;

pub use backend::{Backend, FaultInjector, FileBackend, MemBackend};
pub use buffer::PageGuard;
pub use lo::LoId;
pub use lock::{IsolationLevel, LockMode};
pub use page::{PageBuf, PageId, PAGE_SIZE};
pub use space::{
    LoHandle, LoReader, PageSource, Sbspace, SbspaceOptions, SpaceInfo, SpaceSnapshot,
};
pub use stats::{IoSnapshot, IoStats};
pub use txn::{Txn, TxnEnd, TxnId};
pub use wal::{FileWal, MemWal, WalStore, DEFAULT_SEGMENT_BYTES};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbError {
    /// An I/O failure from the backend (or injected fault).
    Io(String),
    /// The requested page or large object does not exist.
    NotFound(String),
    /// Lock acquisition failed because it would deadlock.
    Deadlock(String),
    /// Lock acquisition timed out.
    LockTimeout(String),
    /// The store's on-disk state is corrupt.
    Corrupt(String),
    /// Misuse of the API (e.g. writing through a read-only handle).
    Usage(String),
    /// The transaction has already ended.
    TxnEnded,
}

impl std::fmt::Display for SbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbError::Io(m) => write!(f, "io error: {m}"),
            SbError::NotFound(m) => write!(f, "not found: {m}"),
            SbError::Deadlock(m) => write!(f, "deadlock: {m}"),
            SbError::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            SbError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            SbError::Usage(m) => write!(f, "usage error: {m}"),
            SbError::TxnEnded => write!(f, "transaction already ended"),
        }
    }
}

impl std::error::Error for SbError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SbError>;
