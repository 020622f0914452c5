//! The access-method adaptor shared by every tree-backed blade — what
//! `grtree_am`, `rstar_am` and `gist_am` would otherwise each repeat:
//! the private index state in "td" (the open tree and the scan cursor),
//! snapshot mounting, the parallel-scan gate, the scan loop with its
//! dedup set across OR branches and restarts, the Section 5.5 restart
//! after a deletion, and the Section 6 cost formula.
//!
//! An access method plugs in through [`TreeAm`]: how to open its tree,
//! how to break a qualification into queries and turn each into a tree
//! probe, and what to do with a hit (exact evaluation for the GR-tree,
//! heap refinement for the R\*-tree). Everything else it keeps to
//! itself: opclass and type checks, traces, bulk builds.

use grt_ids::{AmContext, IdsError, IndexDescriptor, QualDescriptor, RowId, Value};
use grt_metrics::TreeMetrics;
use grt_sbspace::{
    Cursor, LoHandle, LoId, LockMode, NodeCodec, NodeError, NodeStore, PageSource,
    ParallelScanStats, SearchTree, TreeProbe, TreeReader,
};
use grt_temporal::Day;
use std::collections::HashSet;
use std::fmt::Display;
use std::hash::Hash;
use std::ops::DerefMut;

/// Index scans on trees at least this many pages go parallel when the
/// effective degree exceeds one; smaller probes stay on the serial
/// cursor, whose setup cost they cannot amortise.
const PARALLEL_PAGE_THRESHOLD: u32 = 32;

/// A row handed back to the engine.
pub type Row = (RowId, Vec<Value>);

/// The tree probe of an access method.
pub type Probe<A> = <<A as TreeAm>::Codec as NodeCodec>::Probe;

/// A tree probe's hit.
pub type Hit<A> = <Probe<A> as TreeProbe>::Hit;

/// Scan-restart policy after deletions (the Section 5.5 design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletePolicy {
    /// Restart open scans after **every** deletion (the conservative
    /// baseline the paper rejects as time-consuming).
    RestartAlways,
    /// Restart open scans only when the deletion actually condensed the
    /// tree (the paper's compromise).
    #[default]
    RestartOnCondense,
}

/// What a tree-backed access method supplies to the adaptor.
pub trait TreeAm: Sized + 'static {
    /// The tree's page layout and probe; its store is what scans,
    /// snapshot readers and the cost formula read.
    type Codec: NodeCodec;
    /// The tree opened over the index BLOB under the LO-level lock.
    type Tree: DerefMut<Target = NodeStore<Self::Codec>> + Send + 'static;
    /// One query of a decomposed qualification.
    type Query: Send + 'static;
    /// Per-scan state of the access method's own.
    type Scan: Send + 'static;
    /// What a scan deduplicates hits on, across OR branches and
    /// restarts.
    type Seen: Hash + Eq + Send + 'static;
    /// Registry prefix of the tree's counters.
    const METRICS: &'static str;

    /// Opens an existing tree.
    fn open_tree(handle: LoHandle) -> Result<Self::Tree, NodeError<Self::Codec>>;
    /// Releases the tree's BLOB handle, flushing its header.
    fn into_lo(tree: Self::Tree) -> Result<LoHandle, NodeError<Self::Codec>>;

    /// Breaks a qualification into the queries the scan runs, one after
    /// another; an empty qualification yields a query matching all.
    fn decompose(qual: &QualDescriptor) -> Result<Vec<Self::Query>, IdsError>;
    /// The tree probe for one query at current time `ct`.
    fn probe(&self, query: &Self::Query, ct: Day) -> Probe<Self>;
    /// The dedup key of a hit.
    fn seen(hit: &Hit<Self>) -> Self::Seen;
    /// Turns a hit into a row, or drops it when the qualification does
    /// not hold.
    fn accept(
        &self,
        scan: &mut Self::Scan,
        qual: &QualDescriptor,
        hit: Hit<Self>,
        ct: Day,
    ) -> Result<Option<Row>, IdsError>;
    /// Traces one parallel scan in the access method's own class.
    fn trace_parallel(&self, ctx: &AmContext, stats: &ParallelScanStats, rows: usize);
    /// The area of the root's bound and the summed area of its overlap
    /// with each query, or `None` for an empty tree — on the locked
    /// tree or a snapshot reader.
    fn coverage<S: PageSource>(
        &self,
        tree: &NodeStore<Self::Codec, S>,
        queries: &[Self::Query],
        ct: Day,
    ) -> Result<Option<(i128, i128)>, IdsError>;
}

/// A tree-layer failure as the engine sees it.
pub fn am_err(e: impl Display) -> IdsError {
    IdsError::AccessMethod(e.to_string())
}

/// The private index state ("td").
struct TdState<A: TreeAm> {
    lo: LoId,
    mode: LockMode,
    tree: Option<A::Tree>,
    ct: Day,
    scan: Option<ScanState<A>>,
}

/// Scan state: the queries derived from the qualification, the live
/// cursor, and the dedup set across OR branches and restarts.
struct ScanState<A: TreeAm> {
    queries: Vec<A::Query>,
    current: usize,
    cursor: Option<Cursor<Probe<A>>>,
    /// Merged parallel results for the current probe, handed out from
    /// the back. `None` while the probe runs on the serial cursor.
    buffer: Option<Vec<Hit<A>>>,
    /// Requested parallel degree (resolved at `am_beginscan`).
    workers: usize,
    qual: QualDescriptor,
    seen: HashSet<A::Seen>,
    /// Frozen-view reader when the statement runs on a space snapshot
    /// (no BLOB lock, no condense restarts). Lives in the scan — not in
    /// "td" — so it is released with the statement, never pinning
    /// retired pages past `am_endscan`.
    reader: Option<TreeReader<A::Codec>>,
    own: A::Scan,
}

impl<A: TreeAm> ScanState<A> {
    /// Rewinds to the first probe, dropping the live cursor and any
    /// buffered parallel results; the dedup set keeps already-returned
    /// entries from reappearing.
    fn rewind(&mut self) {
        self.cursor = None;
        self.buffer = None;
        self.current = 0;
    }
}

/// Effective parallel degree for a scan: the session's `SET PARALLEL`
/// override when present, else the engine-wide default carried in the
/// index descriptor's parameters.
fn scan_degree(idx: &IndexDescriptor, ctx: &AmContext) -> usize {
    ctx.session
        .get_named::<usize>("parallel_workers")
        .or_else(|| idx.params.get("scan_workers").and_then(|s| s.parse().ok()))
        .unwrap_or(1)
        .max(1)
}

fn registered<A: TreeAm>(ctx: &AmContext) -> TreeMetrics {
    TreeMetrics::registered(&ctx.space.metrics(), A::METRICS)
}

/// Runs `f` with the descriptor's `TdState`, creating it on demand from
/// the fragment catalog.
fn with_td<A: TreeAm, R>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    f: impl FnOnce(&mut TdState<A>) -> Result<R, IdsError>,
) -> Result<R, IdsError> {
    let mut guard = idx.user_data.lock();
    if guard.is_none() {
        let lo = {
            let frags = ctx.fragments.lock();
            LoId(*frags.get(&idx.index_name).ok_or_else(|| {
                IdsError::AccessMethod(format!(
                    "index {} has no fragment (was am_create run?)",
                    idx.index_name
                ))
            })?)
        };
        *guard = Some(Box::new(TdState::<A> {
            lo,
            mode: LockMode::Shared,
            tree: None,
            ct: ctx.clock.today(),
            scan: None,
        }));
    }
    let td = guard
        .as_mut()
        .and_then(|b| b.downcast_mut::<TdState<A>>())
        .ok_or_else(|| IdsError::AccessMethod("foreign index state".into()))?;
    f(td)
}

/// Ensures the tree is open with at least the needed lock mode.
fn ensure_tree<A: TreeAm>(
    td: &mut TdState<A>,
    ctx: &AmContext,
    write: bool,
) -> Result<(), IdsError> {
    let need = if write {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    };
    if td.tree.is_some() && (td.mode == LockMode::Exclusive || need == LockMode::Shared) {
        return Ok(());
    }
    // (Re)open the BLOB in the required mode; the automatic LO-level
    // locking of the sbspace applies (Section 5.3).
    if let Some(tree) = td.tree.take() {
        A::into_lo(tree).map_err(am_err)?.close()?;
    }
    let handle = ctx.space.open_lo(ctx.txn, td.lo, need)?;
    let mut tree = A::open_tree(handle).map_err(am_err)?;
    tree.set_metrics(registered::<A>(ctx));
    td.tree = Some(tree);
    td.mode = need;
    Ok(())
}

/// Mounts the statement's frozen view of the index, if the engine
/// routed the statement onto a space snapshot.
fn snapshot_reader<A: TreeAm>(
    td: &TdState<A>,
    ctx: &AmContext,
) -> Result<Option<TreeReader<A::Codec>>, IdsError> {
    let Some(snap) = ctx.snapshot.as_deref() else {
        return Ok(None);
    };
    let reader = TreeReader::open(snap.reader(td.lo)?, registered::<A>(ctx)).map_err(am_err)?;
    Ok(Some(reader))
}

/// `am_create`: creates the index BLOB, records it in the fragment
/// catalog, and initialises a tree in it with `make`.
pub fn create<A: TreeAm>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    ct: Day,
    make: impl FnOnce(LoHandle) -> Result<A::Tree, NodeError<A::Codec>>,
) -> Result<(), IdsError> {
    let lo = ctx.space.create_lo(ctx.txn)?;
    ctx.fragments.lock().insert(idx.index_name.clone(), lo.0);
    let handle = ctx.space.open_lo(ctx.txn, lo, LockMode::Exclusive)?;
    let mut tree = make(handle).map_err(am_err)?;
    tree.set_metrics(registered::<A>(ctx));
    *idx.user_data.lock() = Some(Box::new(TdState::<A> {
        lo,
        mode: LockMode::Exclusive,
        tree: Some(tree),
        ct,
        scan: None,
    }));
    Ok(())
}

/// `am_close`: drops "td", closing the BLOB if a tree was open.
/// Returns whether one was.
pub fn close<A: TreeAm>(idx: &IndexDescriptor) -> Result<bool, IdsError> {
    let td = idx.user_data.lock().take();
    let Some(tree) = td.and_then(|b| b.downcast::<TdState<A>>().ok()?.tree) else {
        return Ok(false);
    };
    A::into_lo(tree).map_err(am_err)?.close()?;
    Ok(true)
}

/// `am_drop`: closes the tree and drops the index BLOB. Returns whether
/// a BLOB was dropped.
pub fn drop_index<A: TreeAm>(idx: &IndexDescriptor, ctx: &AmContext) -> Result<bool, IdsError> {
    close::<A>(idx)?;
    let Some(lo) = ctx.fragments.lock().remove(&idx.index_name) else {
        return Ok(false);
    };
    ctx.space.drop_lo(ctx.txn, LoId(lo))?;
    Ok(true)
}

/// How `am_open` found the index.
pub enum Opened {
    /// The tree was already open (right after `am_create`).
    Already,
    /// A snapshot statement: nothing opened, the scan mounts the
    /// frozen view at `am_beginscan`.
    Snapshot,
    /// The BLOB was opened under a shared lock.
    Locked,
}

/// `am_open`: fixes the statement's current time and opens the tree
/// unless the statement runs on a snapshot.
pub fn open<A: TreeAm>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    ct: Day,
) -> Result<Opened, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        td.ct = ct;
        if td.tree.is_some() {
            return Ok(Opened::Already);
        }
        if ctx.snapshot.is_some() {
            return Ok(Opened::Snapshot);
        }
        ensure_tree(td, ctx, false)?;
        Ok(Opened::Locked)
    })
}

/// `am_beginscan`: decomposes the qualification and sets up the scan,
/// on the snapshot's frozen view when there is one (returns `true`),
/// else on the locked tree.
pub fn beginscan<A: TreeAm>(
    idx: &IndexDescriptor,
    qual: &QualDescriptor,
    ctx: &AmContext,
    own: A::Scan,
) -> Result<bool, IdsError> {
    let queries = A::decompose(qual)?;
    let workers = scan_degree(idx, ctx);
    with_td::<A, _>(idx, ctx, |td| {
        let reader = snapshot_reader(td, ctx)?;
        if reader.is_none() {
            ensure_tree(td, ctx, false)?;
        }
        let on_snapshot = reader.is_some();
        td.scan = Some(ScanState {
            queries,
            current: 0,
            cursor: None,
            buffer: None,
            workers,
            qual: qual.clone(),
            seen: HashSet::new(),
            reader,
            own,
        });
        Ok(on_snapshot)
    })
}

/// `am_rescan`: rewinds the scan and forgets what it returned.
pub fn rescan<A: TreeAm>(idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        if let Some(scan) = td.scan.as_mut() {
            scan.rewind();
            scan.seen.clear();
        }
        Ok(())
    })
}

/// `am_getnext_batch`: up to `max_rows` rows under one descriptor-lock
/// acquisition; a short batch tells the executor the scan is exhausted.
pub fn getnext_batch<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    ctx: &AmContext,
    max_rows: usize,
) -> Result<Vec<Row>, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        let mut out = Vec::with_capacity(max_rows.min(64));
        while out.len() < max_rows {
            match scan_step(am, idx, td, ctx)? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        Ok(out)
    })
}

/// `am_endscan`: ends the scan, handing back the access method's own
/// scan state.
pub fn endscan<A: TreeAm>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
) -> Result<Option<A::Scan>, IdsError> {
    with_td::<A, _>(idx, ctx, |td| Ok(td.scan.take().map(|s| s.own)))
}

/// Runs `f` on the tree, opened for writing when `write` is set, with
/// the statement's current time.
pub fn with_tree<A: TreeAm, R>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    write: bool,
    f: impl FnOnce(&mut A::Tree, Day) -> Result<R, IdsError>,
) -> Result<R, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        ensure_tree(td, ctx, write)?;
        f(td.tree.as_mut().expect("ensured"), td.ct)
    })
}

/// `am_delete`: runs the deletion `f` (which reports whether it
/// condensed the tree) and, per `policy`, restarts the open scan — the
/// Section 5.5 rule: "we decided to restart scanning of the index only
/// when the tree is actually condensed". Returns whether it restarted.
pub fn delete<A: TreeAm>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    policy: DeletePolicy,
    f: impl FnOnce(&mut A::Tree, Day) -> Result<bool, IdsError>,
) -> Result<bool, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        ensure_tree(td, ctx, true)?;
        let condensed = f(td.tree.as_mut().expect("ensured"), td.ct)?;
        let restart = policy == DeletePolicy::RestartAlways || condensed;
        if restart {
            if let Some(scan) = td.scan.as_mut() {
                scan.rewind();
            }
        }
        Ok(restart)
    })
}

/// `am_build`: replaces the empty tree `am_create` initialised with the
/// one `load` packs into the truncated BLOB.
pub fn build<A: TreeAm>(
    idx: &IndexDescriptor,
    ctx: &AmContext,
    load: impl FnOnce(LoHandle, Day) -> Result<A::Tree, IdsError>,
) -> Result<bool, IdsError> {
    with_td::<A, _>(idx, ctx, |td| {
        ensure_tree(td, ctx, true)?;
        let mut handle = A::into_lo(td.tree.take().expect("ensured")).map_err(am_err)?;
        handle.truncate_pages(0)?;
        let mut tree = load(handle, td.ct)?;
        tree.set_metrics(registered::<A>(ctx));
        td.tree = Some(tree);
        td.mode = LockMode::Exclusive;
        Ok(true)
    })
}

/// `am_scancost`, the Section 6 cost formula: tree height plus the page
/// count scaled by the fraction of the root bound the queries cover,
/// floored so the estimate stays monotone in size. Snapshot statements
/// cost the plan from a transient frozen reader — the planner must not
/// take the LO-level S lock the snapshot path exists to avoid.
pub fn scancost<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    qual: &QualDescriptor,
    ctx: &AmContext,
) -> Result<f64, IdsError> {
    fn cost<A: TreeAm, S: PageSource>(
        am: &A,
        tree: &NodeStore<A::Codec, S>,
        queries: &[A::Query],
        ct: Day,
    ) -> Result<f64, IdsError> {
        let fraction = match am.coverage(tree, queries, ct)? {
            None => 0.0,
            Some((total, overlap)) if !queries.is_empty() && total > 0 => {
                (overlap as f64 / total as f64).clamp(0.02, 1.0)
            }
            Some(_) => 1.0,
        };
        Ok(tree.height() as f64 + tree.pages() as f64 * fraction)
    }
    with_td::<A, _>(idx, ctx, |td| {
        let queries = A::decompose(qual).unwrap_or_default();
        match snapshot_reader(td, ctx)? {
            Some(reader) => cost(am, &reader, &queries, td.ct),
            None => {
                ensure_tree(td, ctx, false)?;
                cost(am, &**td.tree.as_ref().expect("ensured"), &queries, td.ct)
            }
        }
    })
}

/// One row off the scan; the caller holds the descriptor lock.
fn scan_step<A: TreeAm>(
    am: &A,
    idx: &IndexDescriptor,
    td: &mut TdState<A>,
    ctx: &AmContext,
) -> Result<Option<Row>, IdsError> {
    // A snapshot scan never touches the locked tree; everything it
    // needs lives in the scan state's frozen reader.
    let on_snapshot = td.scan.as_ref().is_some_and(|s| s.reader.is_some());
    if !on_snapshot {
        ensure_tree(td, ctx, false)?;
    }
    let ct = td.ct;
    let tree = td.tree.as_ref();
    let scan = td
        .scan
        .as_mut()
        .ok_or_else(|| IdsError::AccessMethod("getnext without beginscan".into()))?;
    loop {
        if scan.cursor.is_none() && scan.buffer.is_none() {
            let Some(query) = scan.queries.get(scan.current) else {
                return Ok(None);
            };
            let probe = am.probe(query, ct);
            let pages = match &scan.reader {
                Some(r) => r.pages(),
                None => tree.expect("ensured").pages(),
            };
            if scan.workers > 1 && pages >= PARALLEL_PAGE_THRESHOLD {
                // The probe clears the page threshold: run it through
                // the work-stealing traversal over the pinned read path
                // and buffer the merged hits.
                let result = match &scan.reader {
                    Some(r) => r.parallel_scan(&probe, scan.workers),
                    None => tree.expect("ensured").parallel_scan(&probe, scan.workers),
                }
                .map_err(am_err)?;
                let metrics = ctx.space.metrics();
                metrics.counter("scan.parallel_scans").inc();
                let worker_ns = metrics.histogram("scan.parallel_worker_ns");
                for &ns in &result.stats.worker_ns {
                    worker_ns.observe_ns(ns);
                }
                am.trace_parallel(ctx, &result.stats, result.rows.len());
                ctx.trace.emit_with("EXPLAIN", 1, || {
                    format!(
                        "parallel index scan on {}: degree {} (requested {})",
                        idx.index_name, result.stats.workers, scan.workers
                    )
                });
                let mut rows = result.rows;
                rows.reverse();
                scan.buffer = Some(rows);
            } else {
                if scan.workers > 1 {
                    ctx.space.metrics().counter("scan.parallel_fallbacks").inc();
                }
                scan.cursor = Some(match &scan.reader {
                    Some(r) => r.cursor(probe),
                    None => tree.expect("ensured").cursor(probe),
                });
            }
        }
        let next = if let Some(buf) = scan.buffer.as_mut() {
            let popped = buf.pop();
            if popped.is_none() {
                scan.buffer = None;
            }
            popped
        } else {
            let cursor = scan.cursor.as_mut().expect("just set");
            let stepped = match &scan.reader {
                Some(r) => r.cursor_next(cursor),
                None => tree.expect("ensured").cursor_next(cursor),
            }
            .map_err(am_err)?;
            if stepped.is_none() {
                scan.cursor = None;
            }
            stepped
        };
        let Some(hit) = next else {
            scan.current += 1;
            continue;
        };
        if !scan.seen.insert(A::seen(&hit)) {
            continue;
        }
        if let Some(row) = am.accept(&mut scan.own, &scan.qual, hit, ct)? {
            return Ok(Some(row));
        }
    }
}
