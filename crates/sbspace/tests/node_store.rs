//! The node store every tree keeps its pages in: the header round trip,
//! LIFO reuse of freed node pages, and the delete epilogue that shrinks
//! a single-child root.

use grt_metrics::TreeMetrics;
use grt_sbspace::page::{get_u32, put_u32, zeroed_page, PageBuf, NO_PAGE};
use grt_sbspace::{
    IsolationLevel, LoHandle, LockMode, NodeCodec, NodeStore, SbError, Sbspace, SbspaceOptions,
    SearchTree, TreeProbe, PAGE_SIZE,
};

/// A toy node: its level and a list of child pages (or, in a leaf,
/// entry ids).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    level: u32,
    items: Vec<u32>,
}

fn node(level: u32, items: &[u32]) -> Node {
    Node {
        level,
        items: items.to_vec(),
    }
}

/// Every leaf entry.
struct All;

impl TreeProbe for All {
    type Hit = u32;
    type Key = u32;
    type Error = SbError;

    fn visit(
        &self,
        page: &[u8; PAGE_SIZE],
        _metrics: &TreeMetrics,
        kids: &mut Vec<u32>,
        hits: &mut Vec<u32>,
    ) -> Result<(), SbError> {
        let n = Toy::decode(page)?;
        if n.level == 0 {
            hits.extend(n.items);
        } else {
            kids.extend(n.items);
        }
        Ok(())
    }

    fn key(hit: &u32) -> u32 {
        *hit
    }
}

enum Toy {}

impl NodeCodec for Toy {
    const MAGIC: &'static [u8; 4] = b"TOYH";
    type Params = u32;
    type Node = Node;
    type Probe = All;

    fn encode(n: &Node) -> Result<PageBuf, SbError> {
        let mut p = zeroed_page();
        p[0..4].copy_from_slice(b"TOYN");
        put_u32(&mut p[..], 4, n.level);
        put_u32(&mut p[..], 8, n.items.len() as u32);
        for (i, item) in n.items.iter().enumerate() {
            put_u32(&mut p[..], 12 + 4 * i, *item);
        }
        Ok(p)
    }
    fn decode(page: &[u8; PAGE_SIZE]) -> Result<Node, SbError> {
        if &page[0..4] != b"TOYN" {
            return Err(SbError::Corrupt("not a toy node".into()));
        }
        let len = get_u32(&page[..], 8) as usize;
        Ok(Node {
            level: get_u32(&page[..], 4),
            items: (0..len).map(|i| get_u32(&page[..], 12 + 4 * i)).collect(),
        })
    }
    fn only_child(n: &Node) -> Option<u32> {
        (n.level > 0 && n.items.len() == 1).then(|| n.items[0])
    }
    fn put_params(p: &u32, tail: &mut [u8]) {
        put_u32(tail, 0, *p);
    }
    fn get_params(tail: &[u8]) -> u32 {
        get_u32(tail, 0)
    }
}

fn fresh_lo() -> LoHandle {
    let sb = Sbspace::mem(SbspaceOptions {
        pool_pages: 256,
        ..Default::default()
    });
    let txn = sb.begin(IsolationLevel::ReadCommitted);
    let lo = sb.create_lo(&txn).unwrap();
    let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
    std::mem::forget(txn);
    std::mem::forget(sb);
    h
}

#[test]
fn header_round_trips_through_into_lo_and_open() {
    let mut store = NodeStore::<Toy>::create(fresh_lo(), 3, 77, &node(0, &[])).unwrap();
    assert_eq!((store.root(), store.height(), store.pages()), (1, 1, 2));
    store.meta.count = 9;
    let lo = store.into_lo().unwrap();
    let again = NodeStore::<Toy>::open(lo, TreeMetrics::default()).unwrap();
    assert_eq!(again.meta.count, 9);
    assert_eq!(again.min_fill(), 3);
    assert_eq!(again.meta.params, 77);
    assert_eq!(again.meta.free_head, NO_PAGE);
    // Another tree's magic is refused.
    let lo = again.into_lo().unwrap();
    let mut page = lo.read_page(0).unwrap();
    page[0..4].copy_from_slice(b"XXXX");
    let mut lo = lo;
    lo.write_page(0, &page).unwrap();
    assert!(NodeStore::<Toy>::open(lo, TreeMetrics::default()).is_err());
}

#[test]
fn freed_pages_are_reused_last_in_first_out() {
    let mut store = NodeStore::<Toy>::create(fresh_lo(), 2, 0, &node(0, &[])).unwrap();
    let pages: Vec<u32> = (0..3)
        .map(|i| store.alloc(&node(0, &[i])).unwrap())
        .collect();
    assert_eq!(pages, vec![2, 3, 4]);
    store.free(2).unwrap();
    store.free(3).unwrap();
    // A freed page is no node, and chains to the page freed before it.
    let freed = store.source().read_page(3).unwrap();
    assert!(Toy::decode(&freed).is_err());
    assert_eq!(get_u32(&freed[..], 4), 2);
    assert_eq!(store.alloc(&node(0, &[7])).unwrap(), 3);
    assert_eq!(store.alloc(&node(0, &[8])).unwrap(), 2);
    assert_eq!(store.alloc(&node(0, &[9])).unwrap(), 5);
    assert_eq!(store.read_node(2).unwrap(), node(0, &[8]));
    assert_eq!(store.meta.free_head, NO_PAGE);
    // A free-chain head that points at a live node is refused.
    store.meta.free_head = 2;
    assert!(store.alloc(&node(0, &[10])).is_err());
}

#[test]
fn finish_delete_shrinks_single_child_roots() {
    let mut store = NodeStore::<Toy>::create(fresh_lo(), 2, 0, &node(0, &[5, 6])).unwrap();
    // Two single-child levels over the leaf on page 1.
    let mid = store.alloc(&node(1, &[1])).unwrap();
    let top = store.alloc(&node(2, &[mid])).unwrap();
    store.meta.root = top;
    store.meta.height = 3;
    store.meta.count = 3;
    let out = store.finish_delete(true).unwrap();
    assert!(out.found && out.condensed);
    assert_eq!((store.root(), store.height(), store.len()), (1, 1, 2));
    assert_eq!(store.metrics().condenses.get(), 1);
    // Both old roots went to the free chain, the last one freed first.
    assert_eq!(store.meta.free_head, mid);
    let hits = store.parallel_scan(&All, 2).unwrap().rows;
    assert_eq!(hits, vec![5, 6]);
}
