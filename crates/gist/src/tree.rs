//! The generic tree skeleton.
//!
//! Everything structural — descent, splitting, parent-key maintenance,
//! deletion with condensation, invariant checks — lives here and never
//! interprets a key; the four extension primitives of Hellerstein et
//! al. supply all semantics. Header, node I/O and page allocation come
//! from the shared [`NodeStore`], searches from the shared scaffold of
//! [`grt_sbspace::search`] through [`GistProbe`] — the same code the
//! GR-tree and the R\*-tree run on.

use crate::node::{RawEntry, RawNode};
use crate::{GistError, Result};
use grt_metrics::TreeMetrics;
use grt_sbspace::page::{PageBuf, PAGE_SIZE};
use grt_sbspace::{
    ChildFate, DeleteOutcome, LoHandle, NodeCodec, NodeStore, SearchTree, TreeProbe,
};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// The extension interface: the primitive operations a tree-based
/// access method must supply (HNP95's `Consistent`, `Union`, `Penalty`,
/// `PickSplit` — `Compress`/`Decompress` are folded into the key codec).
pub trait GistExtension: Clone + Send + Sync + 'static {
    /// The decoded key type.
    type Key: Clone;
    /// The query type `consistent` tests against.
    type Query: Clone + Send + Sync;

    /// Serialises a key.
    fn encode_key(&self, key: &Self::Key, out: &mut Vec<u8>);
    /// Deserialises a key.
    fn decode_key(&self, bytes: &[u8]) -> Result<Self::Key>;
    /// Can an entry under `key` match `query`? (Exact at leaves, may
    /// only err towards `true` internally.)
    fn consistent(&self, key: &Self::Key, query: &Self::Query, is_leaf: bool) -> bool;
    /// The smallest key covering all of `keys`.
    fn union(&self, keys: &[Self::Key]) -> Self::Key;
    /// Cost of inserting `new` under `existing` (smaller = better).
    fn penalty(&self, existing: &Self::Key, new: &Self::Key) -> i128;
    /// Partitions `keys` (length >= 2) into two non-empty groups,
    /// returned as index sets.
    fn pick_split(&self, keys: &[Self::Key]) -> (Vec<usize>, Vec<usize>);
    /// Key equality (for delete lookups); defaults to encoded equality.
    fn key_eq(&self, a: &Self::Key, b: &Self::Key) -> bool {
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        self.encode_key(a, &mut ba);
        self.encode_key(b, &mut bb);
        ba == bb
    }
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct GistTreeOptions {
    /// Minimum entries per non-root node before condensation.
    pub min_fill: usize,
}

impl Default for GistTreeOptions {
    fn default() -> Self {
        GistTreeOptions { min_fill: 2 }
    }
}

/// The generic tree's page layout: [`RawNode`] pages under a header
/// with no fields of its own, searched by [`GistProbe`]s over `E`.
pub struct GistNodes<E>(PhantomData<fn() -> E>);

impl<E: GistExtension> NodeCodec for GistNodes<E> {
    const MAGIC: &'static [u8; 4] = b"GSTH";
    type Params = ();
    type Node = RawNode;
    type Probe = GistProbe<E>;

    fn encode(node: &RawNode) -> Result<PageBuf> {
        node.encode()
    }
    fn decode(page: &[u8; PAGE_SIZE]) -> Result<RawNode> {
        RawNode::decode(page)
    }
    fn only_child(node: &RawNode) -> Option<u32> {
        match node.entries.as_slice() {
            [only] if !node.is_leaf() => Some(only.payload as u32),
            _ => None,
        }
    }
    fn put_params(_: &(), _: &mut [u8]) {}
    fn get_params(_: &[u8]) {}
}

/// One search: the entries consistent with `query`. A hit is the raw
/// leaf entry; [`GistTree::search`] decodes its key.
pub struct GistProbe<E: GistExtension> {
    ext: E,
    query: E::Query,
}

impl<E: GistExtension> GistProbe<E> {
    /// A probe for `query` under extension `ext`.
    pub fn new(ext: E, query: E::Query) -> GistProbe<E> {
        GistProbe { ext, query }
    }
}

impl<E: GistExtension> TreeProbe for GistProbe<E> {
    type Hit = RawEntry;
    /// Rowid plus encoded key.
    type Key = (u64, Vec<u8>);
    type Error = GistError;

    fn visit(
        &self,
        page: &[u8; PAGE_SIZE],
        _metrics: &TreeMetrics,
        kids: &mut Vec<u32>,
        hits: &mut Vec<RawEntry>,
    ) -> Result<()> {
        let node = RawNode::decode(page)?;
        let leaf = node.is_leaf();
        for e in node.entries {
            if !self
                .ext
                .consistent(&self.ext.decode_key(&e.key)?, &self.query, leaf)
            {
                continue;
            }
            if leaf {
                hits.push(e);
            } else {
                kids.push(e.payload as u32);
            }
        }
        Ok(())
    }

    fn key(e: &RawEntry) -> (u64, Vec<u8>) {
        (e.payload, e.key.clone())
    }
}

/// The generic disk-resident tree. Header, page allocation and search
/// come from its [`NodeStore`], which the tree derefs to.
pub struct GistTree<E: GistExtension> {
    ext: E,
    store: NodeStore<GistNodes<E>>,
}

impl<E: GistExtension> Deref for GistTree<E> {
    type Target = NodeStore<GistNodes<E>>;
    fn deref(&self) -> &NodeStore<GistNodes<E>> {
        &self.store
    }
}

impl<E: GistExtension> DerefMut for GistTree<E> {
    fn deref_mut(&mut self) -> &mut NodeStore<GistNodes<E>> {
        &mut self.store
    }
}

impl<E: GistExtension> GistTree<E> {
    /// Initialises a fresh tree inside an empty large object.
    pub fn create(ext: E, lo: LoHandle, opts: GistTreeOptions) -> Result<GistTree<E>> {
        let min_fill = opts.min_fill.max(1) as u32;
        let store = NodeStore::create(lo, min_fill, (), &RawNode::new(0))?;
        Ok(GistTree { ext, store })
    }

    /// Opens an existing tree with the matching extension.
    pub fn open(ext: E, lo: LoHandle) -> Result<GistTree<E>> {
        let store = NodeStore::open(lo, TreeMetrics::default())?;
        Ok(GistTree { ext, store })
    }

    /// Releases the large object (flushing the header when writable).
    pub fn into_lo(self) -> Result<LoHandle> {
        Ok(self.store.into_lo()?)
    }

    /// The extension in use.
    pub fn extension(&self) -> &E {
        &self.ext
    }

    /// A search for the entries consistent with `query`.
    pub fn probe(&self, query: E::Query) -> GistProbe<E> {
        GistProbe::new(self.ext.clone(), query)
    }

    fn entry_of(&self, key: &E::Key, payload: u64) -> RawEntry {
        let mut bytes = Vec::new();
        self.ext.encode_key(key, &mut bytes);
        RawEntry {
            key: bytes,
            payload,
        }
    }

    fn keys_of(&self, node: &RawNode) -> Result<Vec<E::Key>> {
        node.entries
            .iter()
            .map(|e| self.ext.decode_key(&e.key))
            .collect()
    }

    fn node_union(&self, node: &RawNode) -> Result<E::Key> {
        let keys = self.keys_of(node)?;
        if keys.is_empty() {
            return Err(GistError::Corrupt("union of an empty node".into()));
        }
        Ok(self.ext.union(&keys))
    }

    /// Inserts `key` with payload `rowid`.
    pub fn insert(&mut self, key: &E::Key, rowid: u64) -> Result<()> {
        let entry = self.entry_of(key, rowid);
        self.insert_toplevel(entry, 0)?;
        Ok(self.finish_insert()?)
    }

    fn insert_toplevel(&mut self, entry: RawEntry, level: u16) -> Result<()> {
        let root = self.meta.root;
        if let Some(sibling) = self.insert_rec(root, entry, level)? {
            let old_root = self.read_node(root)?;
            let left = self.entry_of(&self.node_union(&old_root)?, root as u64);
            let mut new_root = RawNode::new(old_root.level + 1);
            new_root.entries.push(left);
            new_root.entries.push(sibling);
            let page = self.alloc(&new_root)?;
            self.meta.root = page;
            self.meta.height += 1;
        }
        Ok(())
    }

    fn insert_rec(
        &mut self,
        page: u32,
        entry: RawEntry,
        target_level: u16,
    ) -> Result<Option<RawEntry>> {
        let mut node = self.read_node(page)?;
        if node.level == target_level {
            node.entries.push(entry);
        } else {
            // ChooseSubtree by minimum penalty.
            let keys = self.keys_of(&node)?;
            let new_key = self.ext.decode_key(&entry.key)?;
            let idx = (0..keys.len())
                .min_by_key(|&i| self.ext.penalty(&keys[i], &new_key))
                .ok_or_else(|| GistError::Corrupt("descending into an empty node".into()))?;
            let child = node.entries[idx].payload as u32;
            let split = self.insert_rec(child, entry, target_level)?;
            // Refresh the chosen child's union key.
            let child_node = self.read_node(child)?;
            node.entries[idx] = self.entry_of(&self.node_union(&child_node)?, child as u64);
            if let Some(sibling) = split {
                node.entries.push(sibling);
            }
        }
        if node.encoded_len() > PAGE_SIZE || node.entries.len() > u16::MAX as usize {
            let (a, b) = self.split(&node)?;
            self.write_node(page, &a)?;
            let b_key = self.node_union(&b)?;
            let b_page = self.alloc(&b)?;
            return Ok(Some(self.entry_of(&b_key, b_page as u64)));
        }
        self.write_node(page, &node)?;
        Ok(None)
    }

    fn split(&self, node: &RawNode) -> Result<(RawNode, RawNode)> {
        self.metrics().splits.inc();
        let keys = self.keys_of(node)?;
        let (left_idx, right_idx) = self.ext.pick_split(&keys);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Err(GistError::Usage(
                "pick_split returned an empty group".into(),
            ));
        }
        if left_idx.len() + right_idx.len() != keys.len() {
            return Err(GistError::Usage(
                "pick_split lost or duplicated entries".into(),
            ));
        }
        let build = |idx: &[usize]| RawNode {
            level: node.level,
            entries: idx.iter().map(|&i| node.entries[i].clone()).collect(),
        };
        Ok((build(&left_idx), build(&right_idx)))
    }

    /// Deletes the entry `(key, rowid)`.
    pub fn delete(&mut self, key: &E::Key, rowid: u64) -> Result<DeleteOutcome> {
        let root = self.meta.root;
        let mut orphans: Vec<(Vec<RawEntry>, u16)> = Vec::new();
        let removed = self.delete_rec(root, key, rowid, &mut orphans)?;
        if removed.is_none() {
            return Ok(DeleteOutcome::default());
        }
        let condensed = !orphans.is_empty();
        for (entries, level) in orphans {
            for entry in entries {
                self.insert_toplevel(entry, level)?;
            }
        }
        self.finish_delete(condensed)
    }

    fn delete_rec(
        &mut self,
        page: u32,
        key: &E::Key,
        rowid: u64,
        orphans: &mut Vec<(Vec<RawEntry>, u16)>,
    ) -> Result<Option<ChildFate<RawEntry>>> {
        let mut node = self.read_node(page)?;
        let is_root = page == self.meta.root;
        let min_fill = self.meta.min_fill as usize;
        if node.is_leaf() {
            let Some(idx) = node.entries.iter().position(|e| {
                e.payload == rowid
                    && self
                        .ext
                        .decode_key(&e.key)
                        .map(|k| self.ext.key_eq(&k, key))
                        .unwrap_or(false)
            }) else {
                return Ok(None);
            };
            node.entries.remove(idx);
            if !is_root && node.entries.len() < min_fill {
                return Ok(Some(ChildFate::Dissolved(
                    std::mem::take(&mut node.entries),
                    0,
                )));
            }
            self.write_node(page, &node)?;
            return Ok(Some(ChildFate::Alive));
        }
        for idx in 0..node.entries.len() {
            // Descend only where the entry's subtree could hold the key:
            // a zero-penalty union means the subtree key covers it.
            let sub_key = self.ext.decode_key(&node.entries[idx].key)?;
            if self.ext.penalty(&sub_key, key) != 0 {
                continue;
            }
            let child = node.entries[idx].payload as u32;
            match self.delete_rec(child, key, rowid, orphans)? {
                None => continue,
                Some(ChildFate::Alive) => {
                    let child_node = self.read_node(child)?;
                    node.entries[idx] = self.entry_of(&self.node_union(&child_node)?, child as u64);
                }
                Some(ChildFate::Dissolved(entries, level)) => {
                    orphans.push((entries, level));
                    self.free(child)?;
                    node.entries.remove(idx);
                }
            }
            if !is_root && node.entries.len() < min_fill {
                let level = node.level;
                return Ok(Some(ChildFate::Dissolved(
                    std::mem::take(&mut node.entries),
                    level,
                )));
            }
            self.write_node(page, &node)?;
            return Ok(Some(ChildFate::Alive));
        }
        Ok(None)
    }

    /// Collects all `(key, rowid)` pairs consistent with `query`.
    pub fn search(&self, query: &E::Query) -> Result<Vec<(E::Key, u64)>> {
        let mut cursor = self.cursor(self.probe(query.clone()));
        let mut out = Vec::new();
        while let Some(e) = self.cursor_next(&mut cursor)? {
            out.push((self.ext.decode_key(&e.key)?, e.payload));
        }
        Ok(out)
    }

    /// Verifies structural invariants: parent keys cover child unions
    /// (zero penalty), levels decrease, counts match.
    pub fn check(&self) -> Result<()> {
        let mut leaves = 0u64;
        self.check_rec(self.meta.root, None, &mut leaves)?;
        Ok(self.check_count(leaves)?)
    }

    fn check_rec(
        &self,
        page: u32,
        expect_level: Option<u16>,
        leaves: &mut u64,
    ) -> Result<Option<E::Key>> {
        let node = self.read_node(page)?;
        self.check_node(page, node.level, expect_level, node.entries.len())?;
        if node.is_leaf() {
            *leaves += node.entries.len() as u64;
            if node.entries.is_empty() {
                return Ok(None);
            }
            return Ok(Some(self.node_union(&node)?));
        }
        for e in &node.entries {
            let parent_key = self.ext.decode_key(&e.key)?;
            let child_union = self
                .check_rec(e.payload as u32, Some(node.level - 1), leaves)?
                .ok_or_else(|| GistError::Corrupt(format!("page {page}: empty child")))?;
            if self.ext.penalty(&parent_key, &child_union) != 0 {
                return Err(GistError::Corrupt(format!(
                    "page {page}: parent key does not cover its child"
                )));
            }
        }
        Ok(Some(self.node_union(&node)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately broken extension: pick_split returns an empty
    /// group. The skeleton must reject it instead of corrupting.
    #[derive(Clone)]
    struct BadSplit;
    impl GistExtension for BadSplit {
        type Key = i64;
        type Query = i64;
        fn encode_key(&self, key: &i64, out: &mut Vec<u8>) {
            out.extend_from_slice(&key.to_le_bytes());
        }
        fn decode_key(&self, bytes: &[u8]) -> Result<i64> {
            Ok(i64::from_le_bytes(
                bytes
                    .try_into()
                    .map_err(|_| GistError::Corrupt("key size".into()))?,
            ))
        }
        fn consistent(&self, key: &i64, query: &i64, _leaf: bool) -> bool {
            key == query
        }
        fn union(&self, keys: &[i64]) -> i64 {
            *keys.iter().max().unwrap()
        }
        fn penalty(&self, existing: &i64, new: &i64) -> i128 {
            (*new as i128 - *existing as i128).max(0)
        }
        fn pick_split(&self, keys: &[i64]) -> (Vec<usize>, Vec<usize>) {
            (Vec::new(), (0..keys.len()).collect())
        }
    }

    #[test]
    fn misbehaving_extension_is_rejected() {
        use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 8192,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        let mut tree = GistTree::create(BadSplit, h, GistTreeOptions::default()).unwrap();
        // Insert until a split is needed; the bad pick_split must fail
        // loudly (Usage error), not corrupt the tree.
        let mut failed = false;
        for i in 0..2000i64 {
            match tree.insert(&i, i as u64) {
                Ok(()) => {}
                Err(GistError::Usage(_)) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(failed, "the empty split must be detected");
        drop(tree);
        txn.commit().unwrap();
    }
}
