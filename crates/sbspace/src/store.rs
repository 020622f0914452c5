//! One node store for every page-per-node tree kept in a large object.
//!
//! The GR-tree, the R\*-tree and the generic search tree all keep the
//! same things in their large object, and this module keeps them once:
//!
//! * the header on logical page 0 — a common prefix (`root`, `height`,
//!   `count`, `min_fill`, `free_head`) behind each tree's own magic,
//!   followed by the tree's own fields;
//! * node-page I/O through the tree's [`NodeCodec`];
//! * allocation with LIFO reuse of freed node pages, chained through
//!   one free-node page format;
//! * header write-back, bulk appends, and the delete epilogue that
//!   shrinks a single-child root;
//! * the [`SearchTree`] view of the tree, over a locked
//!   [`LoHandle`] or a frozen [`LoReader`] — the latter is the
//!   snapshot reader every tree shares ([`TreeReader`]).
//!
//! A new tree therefore supplies a node codec and a [`TreeProbe`]; its
//! insertion, split and condense logic is all that is left to write.

use crate::page::{get_u32, get_u64, put_u32, put_u64, zeroed_page, PageBuf, NO_PAGE, PAGE_SIZE};
use crate::search::{SearchTree, TreeProbe};
use crate::space::{LoHandle, LoReader, PageSource};
use crate::SbError;
use grt_metrics::TreeMetrics;

/// Byte offset on page 0 where a tree's own header fields begin.
const PARAMS_AT: usize = 28;

/// Magic of a freed node page, followed by the next free page. It
/// differs from the sbspace's own free pages, so a pointer that strays
/// from either chain into the other is caught, not followed.
const FREE_NODE: &[u8; 4] = b"NODF";

/// The error type of a codec's tree.
pub type NodeError<K> = <<K as NodeCodec>::Probe as TreeProbe>::Error;

/// What a page-per-node tree supplies to the store: how its nodes and
/// its own header fields are laid out, and the probe its nodes answer.
pub trait NodeCodec: 'static {
    /// Magic of the header page.
    const MAGIC: &'static [u8; 4];
    /// The tree's own header fields, stored after the common prefix.
    type Params: Copy + Send + Sync + 'static;
    /// A decoded node.
    type Node;
    /// One search over the tree's nodes.
    type Probe: TreeProbe + Send + 'static;

    /// Serialises a node into a page image.
    fn encode(node: &Self::Node) -> Result<PageBuf, NodeError<Self>>;
    /// Parses a page image.
    fn decode(page: &[u8; PAGE_SIZE]) -> Result<Self::Node, NodeError<Self>>;
    /// The child of an internal node with exactly one entry, else
    /// `None`.
    fn only_child(node: &Self::Node) -> Option<u32>;
    /// Writes the tree's own header fields into `tail`.
    fn put_params(params: &Self::Params, tail: &mut [u8]);
    /// Reads the tree's own header fields from `tail`.
    fn get_params(tail: &[u8]) -> Self::Params;
}

/// The decoded header page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<P> {
    /// Logical page of the root node.
    pub root: u32,
    /// Tree height: 1 when the root is a leaf.
    pub height: u32,
    /// Number of indexed entries.
    pub count: u64,
    /// Minimum entries per non-root node.
    pub min_fill: u32,
    /// Head of the chain of freed node pages, or `NO_PAGE`.
    pub free_head: u32,
    /// The tree's own fields.
    pub params: P,
}

/// Serialises a header into a page image.
pub fn encode_header<K: NodeCodec>(meta: &Header<K::Params>) -> PageBuf {
    let mut buf = zeroed_page();
    buf[0..4].copy_from_slice(K::MAGIC);
    put_u32(&mut buf[..], 4, meta.root);
    put_u32(&mut buf[..], 8, meta.height);
    put_u64(&mut buf[..], 12, meta.count);
    put_u32(&mut buf[..], 20, meta.min_fill);
    put_u32(&mut buf[..], 24, meta.free_head);
    K::put_params(&meta.params, &mut buf[PARAMS_AT..]);
    buf
}

/// Parses a header page, checking the tree's magic.
pub fn decode_header<K: NodeCodec>(buf: &[u8; PAGE_SIZE]) -> Result<Header<K::Params>, SbError> {
    if &buf[0..4] != K::MAGIC {
        return Err(SbError::Corrupt(format!(
            "bad tree header magic (want {:?})",
            String::from_utf8_lossy(K::MAGIC)
        )));
    }
    Ok(Header {
        root: get_u32(&buf[..], 4),
        height: get_u32(&buf[..], 8),
        count: get_u64(&buf[..], 12),
        min_fill: get_u32(&buf[..], 20),
        free_head: get_u32(&buf[..], 24),
        params: K::get_params(&buf[PARAMS_AT..]),
    })
}

/// Outcome of a deletion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Whether the entry existed.
    pub found: bool,
    /// Whether the tree was condensed — nodes dissolved and their
    /// entries reinserted — so open cursors must restart (the paper's
    /// Section 5.5 rule).
    pub condensed: bool,
}

/// What a recursive deletion did to the child it descended into.
pub enum ChildFate<E> {
    /// The child survives, possibly with a new bound.
    Alive,
    /// The child went underfull and was dissolved: its entries must be
    /// reinserted at the given level.
    Dissolved(Vec<E>, u16),
}

/// A tree's pages in one large object: the header, node I/O and page
/// allocation, read through `S` — a locked [`LoHandle`] for the tree
/// itself, a frozen [`LoReader`] for a snapshot statement.
pub struct NodeStore<K: NodeCodec, S = LoHandle> {
    src: S,
    /// The header as the tree last changed it; written back by every
    /// structural change and by [`NodeStore::into_lo`].
    pub meta: Header<K::Params>,
    /// Operation counters; detached unless set.
    metrics: TreeMetrics,
}

/// A `Send + Sync` read-only view of a tree: a space-snapshot
/// [`LoReader`] plus the header decoded at open, valid while that
/// snapshot stays open — the engine's lock-free read path. The view is
/// frozen, so a concurrent condense never moves nodes out from under
/// its scans.
pub type TreeReader<K> = NodeStore<K, LoReader>;

impl<K: NodeCodec, S: PageSource> NodeStore<K, S> {
    /// Opens the tree in `src`, decoding its header from page 0. Over a
    /// [`LoReader`] no tree and no LO-level lock is involved: this is
    /// how a snapshot read mounts an index.
    pub fn open(src: S, metrics: TreeMetrics) -> Result<Self, NodeError<K>> {
        let meta = decode_header::<K>(&*src.read_page_pinned(0)?)?;
        Ok(NodeStore { src, meta, metrics })
    }

    /// Replaces the operation counters, typically with
    /// [`TreeMetrics::registered`] cells feeding an engine-wide registry.
    pub fn set_metrics(&mut self, metrics: TreeMetrics) {
        self.metrics = metrics;
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.meta.count
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.meta.count == 0
    }

    /// Minimum fill of non-root nodes.
    pub fn min_fill(&self) -> usize {
        self.meta.min_fill as usize
    }

    /// Total pages owned, header included.
    pub fn pages(&self) -> u32 {
        self.src.page_count()
    }

    /// Reads the node at `page`.
    pub fn read_node(&self, page: u32) -> Result<K::Node, NodeError<K>> {
        K::decode(&*self.src.read_page_pinned(page)?)
    }

    /// The per-node part of every tree's `check`: the node at `page`
    /// sits at the level its parent implies, and holds at least
    /// `min_fill` entries unless it is the root.
    pub fn check_node(
        &self,
        page: u32,
        level: u16,
        expect: Option<u16>,
        len: usize,
    ) -> Result<(), SbError> {
        if let Some(l) = expect.filter(|&l| l != level) {
            let msg = format!("page {page}: level {level} expected {l}");
            return Err(SbError::Corrupt(msg));
        }
        if page != self.meta.root && len < self.min_fill() {
            let msg = format!("page {page}: underfull ({len} < {})", self.meta.min_fill);
            return Err(SbError::Corrupt(msg));
        }
        Ok(())
    }

    /// The last part of every tree's `check`: the header's entry count
    /// matches the `leaves` a full walk found.
    pub fn check_count(&self, leaves: u64) -> Result<(), SbError> {
        if leaves != self.meta.count {
            let msg = format!(
                "count mismatch: header {} vs leaves {leaves}",
                self.meta.count
            );
            return Err(SbError::Corrupt(msg));
        }
        Ok(())
    }
}

impl<K: NodeCodec, S: PageSource> SearchTree for NodeStore<K, S> {
    type Source = S;
    type Probe = K::Probe;

    fn source(&self) -> &S {
        &self.src
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

impl<K: NodeCodec> NodeStore<K, LoHandle> {
    /// Initialises a tree in an empty large object: the header, then
    /// `root` on page 1.
    pub fn create(
        mut lo: LoHandle,
        min_fill: u32,
        params: K::Params,
        root: &K::Node,
    ) -> Result<Self, NodeError<K>> {
        if lo.page_count() != 0 {
            return Err(SbError::Usage("large object not empty".into()).into());
        }
        let meta = Header {
            root: 1,
            height: 1,
            count: 0,
            min_fill,
            free_head: NO_PAGE,
            params,
        };
        lo.append_page(&encode_header::<K>(&meta))?;
        lo.append_page(&*K::encode(root)?)?;
        Ok(NodeStore {
            src: lo,
            meta,
            metrics: TreeMetrics::default(),
        })
    }

    /// Writes the header page.
    fn write_meta(&mut self) -> Result<(), SbError> {
        self.src.write_page(0, &encode_header::<K>(&self.meta))
    }

    /// Releases the large-object handle, flushing the header when the
    /// handle is writable (read-only opens never changed it).
    pub fn into_lo(mut self) -> Result<LoHandle, SbError> {
        if self.src.is_writable() {
            self.write_meta()?;
        }
        Ok(self.src)
    }

    /// Overwrites the node at `page`.
    pub fn write_node(&mut self, page: u32, node: &K::Node) -> Result<(), NodeError<K>> {
        Ok(self.src.write_page(page, &*K::encode(node)?)?)
    }

    /// Stores `node` on a fresh page: the most recently freed one, else
    /// a new page at the end.
    pub fn alloc(&mut self, node: &K::Node) -> Result<u32, NodeError<K>> {
        let page = self.meta.free_head;
        if page == NO_PAGE {
            return self.bulk_append(node);
        }
        let next = {
            let free = self.src.read_page_pinned(page)?;
            if &free[0..4] != FREE_NODE {
                return Err(SbError::Corrupt(format!("page {page}: bad free node magic")).into());
            }
            get_u32(&free[..], 4)
        };
        self.meta.free_head = next;
        self.write_node(page, node)?;
        Ok(page)
    }

    /// Returns `page` to the head of the free chain.
    pub fn free(&mut self, page: u32) -> Result<(), SbError> {
        let mut img = zeroed_page();
        img[0..4].copy_from_slice(FREE_NODE);
        put_u32(&mut img[..], 4, self.meta.free_head);
        self.src.write_page(page, &img)?;
        self.meta.free_head = page;
        Ok(())
    }

    /// Appends `node` as a new page — the bulk loaders' packed writes,
    /// which never reuse freed pages.
    pub fn bulk_append(&mut self, node: &K::Node) -> Result<u32, NodeError<K>> {
        Ok(self.src.append_page(&*K::encode(node)?)?)
    }

    /// Installs a bulk-loaded root and entry count.
    pub fn bulk_finish(&mut self, root: u32, height: u32, count: u64) -> Result<(), SbError> {
        self.meta.root = root;
        self.meta.height = height.max(1);
        self.meta.count = count;
        self.write_meta()
    }

    /// The end of every insertion: count the entry in and write the
    /// header.
    pub fn finish_insert(&mut self) -> Result<(), SbError> {
        self.meta.count += 1;
        self.write_meta()
    }

    /// The end of every successful deletion, after the dissolved nodes'
    /// entries are reinserted: count the condense, shrink the root while
    /// it is an internal node with a single child, freeing the old root
    /// pages, then count the entry out and write the header.
    pub fn finish_delete(&mut self, condensed: bool) -> Result<DeleteOutcome, NodeError<K>> {
        if condensed {
            self.metrics.condenses.inc();
        }
        while let Some(child) = K::only_child(&self.read_node(self.meta.root)?) {
            let old = self.meta.root;
            self.meta.root = child;
            self.meta.height -= 1;
            self.free(old)?;
        }
        self.meta.count -= 1;
        self.write_meta()?;
        Ok(DeleteOutcome {
            found: true,
            condensed,
        })
    }
}
