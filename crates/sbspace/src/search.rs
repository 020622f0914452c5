//! One search scaffold for every page-per-node tree stored in a large
//! object — the generic tree access method of the paper's Section 7
//! (a GiST-style extension interface, Hellerstein et al. 1995).
//!
//! The traversal lives here once: a depth-first [`Cursor`] with the
//! Section 5.5 restart and an emitted-set that survives restarts, the
//! prefetch announcement of qualifying children, and a frontier /
//! work-stealing [`SearchTree::parallel_scan`]. A tree plugs in with two
//! small traits:
//!
//! * [`TreeProbe`] — one query against one tree kind: decode a node
//!   page, say which children qualify and which leaf entries match, and
//!   give the dedup key of a hit;
//! * [`SearchTree`] — where a tree's pages are read from (any
//!   [`PageSource`]: a locked [`LoHandle`](crate::LoHandle) or a frozen
//!   [`LoReader`](crate::LoReader)), its root and height, and the
//!   counters to charge — implemented once, by the
//!   [`NodeStore`](crate::NodeStore) every tree keeps its pages in.
//!
//! Node pages are immutable once published, so neither the cursor nor
//! the parallel workers need per-node latch coupling on either source.

use crate::space::PageSource;
use crate::{SbError, PAGE_SIZE};
use grt_metrics::TreeMetrics;
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Mutex;
use std::time::Instant;

/// One query against one tree kind.
pub trait TreeProbe: Sync {
    /// A matching leaf entry as handed to the caller.
    type Hit: Clone + Send;
    /// What makes two hits the same entry: the cursor's dedup key and
    /// the parallel merge's sort order.
    type Key: Ord + Hash + Send;
    /// The tree's error type.
    type Error: From<SbError> + Send + std::fmt::Display;

    /// Decodes the node image `page` and tests its entries: an internal
    /// node appends its qualifying children to `kids`, a leaf appends
    /// its matching entries to `hits`, both in entry order. Per-entry
    /// counters (e.g. NOW resolutions) are charged to `metrics`.
    fn visit(
        &self,
        page: &[u8; PAGE_SIZE],
        metrics: &TreeMetrics,
        kids: &mut Vec<u32>,
        hits: &mut Vec<Self::Hit>,
    ) -> Result<(), Self::Error>;

    /// The dedup key of `hit`.
    fn key(hit: &Self::Hit) -> Self::Key;
}

/// Reads the node at `page`, charging one node visit.
fn visit<P: TreeProbe, S: PageSource + ?Sized>(
    probe: &P,
    src: &S,
    metrics: &TreeMetrics,
    page: u32,
    kids: &mut Vec<u32>,
    hits: &mut Vec<P::Hit>,
) -> Result<(), P::Error> {
    metrics.nodes_visited.inc();
    probe.visit(&*src.read_page_pinned(page)?, metrics, kids, hits)
}

/// Visits `page` and queues its qualifying children so they pop in
/// entry order, first announcing them when there is more than one, so a
/// prefetching buffer pool overlaps their reads with the compute.
fn descend<P: TreeProbe, S: PageSource + ?Sized>(
    probe: &P,
    src: &S,
    metrics: &TreeMetrics,
    page: u32,
    stack: &mut Vec<u32>,
    hits: &mut Vec<P::Hit>,
) -> Result<(), P::Error> {
    let mark = stack.len();
    visit(probe, src, metrics, page, stack, hits)?;
    if stack.len() > mark + 1 {
        src.prefetch(&stack[mark..]);
    }
    stack[mark..].reverse();
    Ok(())
}

/// A depth-first scan over matching leaf entries: the paper's `Cursor`
/// object, holding the traversal state between `am_getnext` calls.
pub struct Cursor<P: TreeProbe> {
    probe: P,
    /// Pages still to visit; the next one is on top.
    stack: Vec<u32>,
    /// Matches of the current leaf, handed out from `next_hit`.
    hits: Vec<P::Hit>,
    next_hit: usize,
    /// Entries already returned. Survives [`Cursor::restart`]: a
    /// Section 5.5 restart re-walks the condensed tree from the root,
    /// and without this memory it would re-return every row emitted
    /// before the condense.
    emitted: HashSet<P::Key>,
}

impl<P: TreeProbe> Cursor<P> {
    fn new(probe: P, root: u32) -> Cursor<P> {
        Cursor {
            probe,
            stack: vec![root],
            hits: Vec::new(),
            next_hit: 0,
            emitted: HashSet::new(),
        }
    }

    fn restart(&mut self, root: u32) {
        self.stack.clear();
        self.stack.push(root);
        self.hits.clear();
        self.next_hit = 0;
    }

    fn next<S: PageSource + ?Sized>(
        &mut self,
        src: &S,
        metrics: &TreeMetrics,
    ) -> Result<Option<P::Hit>, P::Error> {
        loop {
            while let Some(hit) = self.hits.get(self.next_hit) {
                self.next_hit += 1;
                if self.emitted.insert(P::key(hit)) {
                    return Ok(Some(hit.clone()));
                }
            }
            self.hits.clear();
            self.next_hit = 0;
            let Some(page) = self.stack.pop() else {
                return Ok(None);
            };
            descend(
                &self.probe,
                src,
                metrics,
                page,
                &mut self.stack,
                &mut self.hits,
            )?;
        }
    }
}

/// Figures reported by one [`SearchTree::parallel_scan`] execution.
#[derive(Debug, Clone)]
pub struct ParallelScanStats {
    /// Degree actually used (may be lower than requested when the
    /// frontier is small).
    pub workers: usize,
    /// Subtrees seeded into the shared deque.
    pub frontier: usize,
    /// Per-worker busy time, nanoseconds.
    pub worker_ns: Vec<u64>,
}

/// A merged, deduplicated parallel scan result.
pub struct ParallelScan<H> {
    /// The hits, sorted by dedup key.
    pub rows: Vec<H>,
    /// Execution statistics for metrics and tracing.
    pub stats: ParallelScanStats,
}

/// One worker's depth-first walk over a claimed subtree: the serial
/// cursor's traversal without its emitted-set.
fn scan_subtree<P: TreeProbe, S: PageSource + ?Sized>(
    probe: &P,
    src: &S,
    metrics: &TreeMetrics,
    root: u32,
    out: &mut Vec<P::Hit>,
) -> Result<(), P::Error> {
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        descend(probe, src, metrics, page, &mut stack, out)?;
    }
    Ok(())
}

/// Deterministic merge order plus the cursor's dedup key.
fn dedup_sort<P: TreeProbe>(rows: &mut Vec<P::Hit>) {
    rows.sort_by_key(P::key);
    rows.dedup_by(|a, b| P::key(a) == P::key(b));
}

/// A tree the scaffold can search: where its node pages are read from,
/// the root and height of the version being read, and the counters to
/// charge. Over a `LoHandle` a tree sees the transaction's own writes,
/// over a `LoReader` a frozen snapshot.
pub trait SearchTree {
    /// Where node pages come from.
    type Source: PageSource;
    /// The probe type this tree's nodes understand.
    type Probe: TreeProbe;

    /// The page source.
    fn source(&self) -> &Self::Source;
    /// The root page.
    fn root(&self) -> u32;
    /// Tree height (1 = the root is a leaf).
    fn height(&self) -> u32;
    /// The operation counters to charge.
    fn metrics(&self) -> &TreeMetrics;

    /// Opens a scan cursor (one search).
    fn cursor(&self, probe: Self::Probe) -> Cursor<Self::Probe> {
        self.metrics().searches.inc();
        Cursor::new(probe, self.root())
    }

    /// Advances a cursor to the next matching entry.
    fn cursor_next(
        &self,
        cursor: &mut Cursor<Self::Probe>,
    ) -> Result<Option<<Self::Probe as TreeProbe>::Hit>, <Self::Probe as TreeProbe>::Error> {
        cursor.next(self.source(), self.metrics())
    }

    /// Resets a cursor to the current root — the Section 5.5 restart
    /// after a condense. The emitted-set is kept, so rows returned
    /// before the restart are not returned again by the re-walk.
    fn cursor_restart(&self, cursor: &mut Cursor<Self::Probe>) {
        cursor.restart(self.root());
    }

    /// Runs one probe with up to `workers` threads and returns the
    /// merged hits — the same set a fresh serial cursor drains, sorted
    /// by dedup key. The scan seeds a frontier of qualifying subtrees,
    /// expanding level by level while it is too small to keep every
    /// worker busy, and workers claim subtrees from a shared deque until
    /// it drains. The caller owns restart semantics: after a condense
    /// it re-runs the scan and filters against its own emitted-set.
    #[allow(clippy::type_complexity)]
    fn parallel_scan(
        &self,
        probe: &Self::Probe,
        workers: usize,
    ) -> Result<ParallelScan<<Self::Probe as TreeProbe>::Hit>, <Self::Probe as TreeProbe>::Error>
    where
        Self::Source: Sync,
    {
        let (src, metrics) = (self.source(), self.metrics());
        metrics.searches.inc();
        // A leaf root puts its matches straight into `rows` and leaves
        // the frontier empty.
        let (mut rows, mut frontier) = (Vec::new(), Vec::new());
        visit(probe, src, metrics, self.root(), &mut frontier, &mut rows)?;
        src.prefetch(&frontier);
        // Frontier nodes start one level below the root; stop expanding
        // before the leaf level (depth `height - 1`).
        let mut depth = 1;
        while frontier.len() < workers.saturating_mul(2) && depth + 1 < self.height() {
            let mut next = Vec::new();
            for page in frontier {
                visit(probe, src, metrics, page, &mut next, &mut rows)?;
            }
            frontier = next;
            src.prefetch(&frontier);
            depth += 1;
        }

        let frontier_len = frontier.len();
        let degree = workers.max(1).min(frontier_len.max(1));
        let mut worker_ns = Vec::new();
        if degree <= 1 {
            for page in frontier {
                scan_subtree(probe, src, metrics, page, &mut rows)?;
            }
        } else {
            // Shared deque of subtree roots; workers pop until it drains.
            let deque = Mutex::new(frontier);
            type Batch<P> = Result<(Vec<<P as TreeProbe>::Hit>, u64), <P as TreeProbe>::Error>;
            let results: Vec<Batch<Self::Probe>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..degree)
                    .map(|_| {
                        let deque = &deque;
                        s.spawn(move || {
                            let start = Instant::now();
                            let mut local = Vec::new();
                            loop {
                                let page = { deque.lock().expect("scan deque poisoned").pop() };
                                let Some(page) = page else { break };
                                scan_subtree(probe, src, metrics, page, &mut local)?;
                            }
                            Ok((local, start.elapsed().as_nanos() as u64))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scan worker panicked"))
                    .collect()
            });
            for r in results {
                let (local, ns) = r?;
                rows.extend(local);
                worker_ns.push(ns);
            }
        }
        dedup_sort::<Self::Probe>(&mut rows);
        let stats = ParallelScanStats {
            workers: degree,
            frontier: frontier_len,
            worker_ns,
        };
        Ok(ParallelScan { rows, stats })
    }
}
