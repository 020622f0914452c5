//! A baseline access method over `GRT_TimeExtent_t` backed by a plain
//! R\*-tree — the stand-in for "Informix's own predefined R-tree access
//! method" and the comparison point of the GR-tree evaluation.
//!
//! `UC`/`NOW` are grounded with a [`NowStrategy`] at insertion; index
//! probes test bounding rectangles only, so every candidate must be
//! **refined**: the base row is fetched and the exact bitemporal
//! predicate evaluated. The extra base-table fetches per false positive
//! are precisely the overhead the GR-tree eliminates. Index state,
//! scans and restarts come from the shared [`tree_am`]
//! adaptor.

use crate::curtime::{resolve_current_time, CurrentTimePolicy};
use crate::extent_type::{extent_from_value, extent_to_value, key_extent, TYPE_NAME};
use crate::qual::{decompose, eval_full, Probe};
use crate::tree_am::{self, am_err, DeletePolicy, Row, TreeAm};
use grt_ids::heap;
use grt_ids::{
    AccessMethod, AmContext, DataType, IdsError, IndexDescriptor, QualDescriptor, RowId,
    ScanDescriptor, Value,
};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::node::Node;
use grt_rstar::{root_mbr, RStarError, RStarOptions, RStarTree, Rect2, RectProbe};
use grt_sbspace::{LoHandle, LoId, LockMode, NodeStore, PageSource, ParallelScanStats, SearchTree};
use grt_temporal::Day;

/// The baseline access method.
pub struct RStarBitemporalAm {
    /// How `UC`/`NOW` are grounded.
    pub strategy: NowStrategy,
    /// R\*-tree construction parameters.
    pub tree_opts: RStarOptions,
    /// Current-time policy (shared with the GR-tree blade).
    pub curtime: CurrentTimePolicy,
}

impl RStarBitemporalAm {
    /// A max-timestamp baseline with the given fan-out.
    pub fn max_timestamp(tree_opts: RStarOptions) -> RStarBitemporalAm {
        RStarBitemporalAm {
            strategy: NowStrategy::MaxTimestamp,
            tree_opts,
            curtime: CurrentTimePolicy::PerStatement,
        }
    }
}

/// The refinement side of one scan.
pub struct Refinement {
    /// The base table for refinement fetches: an S-locked handle on the
    /// locked path, a frozen page-table view on the snapshot path.
    heap: Box<dyn PageSource + Send>,
    column_pos: usize,
    /// Candidates examined (refinement fetches) — the inefficiency
    /// metric the benchmarks report.
    candidates: u64,
    matches: u64,
}

impl TreeAm for RStarBitemporalAm {
    type Codec = Node;
    type Tree = RStarTree;
    type Query = Probe;
    type Scan = Refinement;
    type Seen = u64;
    const METRICS: &'static str = "rstar";

    fn open_tree(handle: LoHandle) -> Result<RStarTree, RStarError> {
        RStarTree::open(handle)
    }
    fn into_lo(tree: RStarTree) -> Result<LoHandle, RStarError> {
        tree.into_lo()
    }

    fn decompose(qual: &QualDescriptor) -> Result<Vec<Probe>, IdsError> {
        decompose(qual)
    }

    fn probe(&self, probe: &Probe, ct: Day) -> RectProbe {
        self.strategy.probe(probe.pred, &probe.query, ct)
    }

    fn seen(&(_, rowid): &(Rect2, u64)) -> u64 {
        rowid
    }

    /// Refinement: fetch the base row and apply the exact bitemporal
    /// predicate.
    fn accept(
        &self,
        scan: &mut Refinement,
        qual: &QualDescriptor,
        (_, rowid): (Rect2, u64),
        ct: Day,
    ) -> Result<Option<Row>, IdsError> {
        scan.candidates += 1;
        let heap_src: &(dyn PageSource + Send) = scan.heap.as_ref();
        let Some(row) = heap::fetch(&heap_src, RowId(rowid))? else {
            return Ok(None);
        };
        let stored = extent_from_value(&row[scan.column_pos])?;
        if !eval_full(qual, &stored, ct)? {
            return Ok(None);
        }
        scan.matches += 1;
        Ok(Some((RowId(rowid), vec![extent_to_value(&stored)])))
    }

    fn trace_parallel(&self, ctx: &AmContext, stats: &ParallelScanStats, rows: usize) {
        ctx.trace.emit_with("RSTAR", 2, || {
            format!(
                "parallel scan: degree {}, {} frontier subtrees, {rows} candidates",
                stats.workers, stats.frontier
            )
        });
    }

    /// The root MBR against the probes' grounded query rectangles. A
    /// max-timestamp `UC`/`NOW` stretches the MBR to `Day::MAX`; those
    /// edges are clipped to the current time first, else every probe
    /// would cover a vanishing share of the bound.
    fn coverage<S: PageSource>(
        &self,
        tree: &NodeStore<Node, S>,
        probes: &[Probe],
        ct: Day,
    ) -> Result<Option<(i128, i128)>, IdsError> {
        let clip = |v: i32| if v == Day::MAX.0 { ct.0 } else { v };
        let mbr = root_mbr(tree).map_err(am_err)?;
        Ok(mbr.map(|m| {
            let b = Rect2::new(m.x1, clip(m.x2), m.y1, clip(m.y2));
            let overlap = probes
                .iter()
                .map(|p| b.overlap_area(&self.strategy.query_rect(&p.query, ct)))
                .sum();
            (b.area(), overlap)
        }))
    }
}

impl RStarBitemporalAm {
    fn table_info(idx: &IndexDescriptor) -> Result<(LoId, usize), IdsError> {
        let lo = idx
            .params
            .get("table_lo")
            .and_then(|s| s.parse::<u32>().ok())
            .ok_or_else(|| IdsError::AccessMethod("missing table_lo parameter".into()))?;
        let pos = idx
            .params
            .get("column_pos")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(0);
        Ok((LoId(lo), pos))
    }
}

impl AccessMethod for RStarBitemporalAm {
    fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        match idx.column_types.first() {
            Some(DataType::Opaque(t)) if t.eq_ignore_ascii_case(TYPE_NAME) => {}
            other => {
                return Err(IdsError::AccessMethod(format!(
                    "rstar_am indexes {TYPE_NAME} columns, got {other:?}"
                )))
            }
        }
        let ct = resolve_current_time(self.curtime, ctx);
        tree_am::create::<Self>(idx, ctx, ct, |handle| {
            RStarTree::create(handle, self.tree_opts)
        })
    }

    fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::drop_index::<Self>(idx, ctx).map(drop)
    }

    fn am_open(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        let ct = resolve_current_time(self.curtime, ctx);
        tree_am::open::<Self>(idx, ctx, ct).map(drop)
    }

    fn am_close(&self, idx: &IndexDescriptor, _ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::close::<Self>(idx).map(drop)
    }

    fn am_beginscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let (table_lo, column_pos) = Self::table_info(idx)?;
        // The refinement heap: frozen view on the snapshot path (no
        // LO-level S lock), locked handle otherwise.
        let heap: Box<dyn PageSource + Send> = match ctx.snapshot.as_deref() {
            Some(snap) => Box::new(snap.reader(table_lo)?),
            None => Box::new(ctx.space.open_lo(ctx.txn, table_lo, LockMode::Shared)?),
        };
        let refinement = Refinement {
            heap,
            column_pos,
            candidates: 0,
            matches: 0,
        };
        tree_am::beginscan::<Self>(idx, &scan.qual, ctx, refinement).map(drop)
    }

    fn am_rescan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        tree_am::rescan::<Self>(idx, ctx)
    }

    fn am_getnext(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<Option<(RowId, Vec<Value>)>, IdsError> {
        Ok(tree_am::getnext_batch(self, idx, ctx, 1)?.pop())
    }

    fn am_getnext_batch(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        max_rows: usize,
        ctx: &AmContext,
    ) -> Result<Vec<(RowId, Vec<Value>)>, IdsError> {
        tree_am::getnext_batch(self, idx, ctx, max_rows)
    }

    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        if let Some(scan) = tree_am::endscan::<Self>(idx, ctx)? {
            ctx.trace.emit_with("RSTAR", 2, || {
                format!(
                    "scan finished: {} candidates, {} matches",
                    scan.candidates, scan.matches
                )
            });
        }
        Ok(())
    }

    fn am_insert(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let extent = key_extent(row)?;
        tree_am::with_tree::<Self, _>(idx, ctx, true, |tree, ct| {
            let rect = self.strategy.to_rect(&extent, ct);
            tree.insert(rect, rowid.0).map_err(am_err)
        })
    }

    fn am_build(
        &self,
        idx: &IndexDescriptor,
        rows: &[(RowId, Vec<Value>)],
        ctx: &AmContext,
    ) -> Result<bool, IdsError> {
        let mut extents = Vec::with_capacity(rows.len());
        for (rid, keys) in rows {
            extents.push((key_extent(keys)?, rid.0));
        }
        // rst_create already initialised an empty tree in the BLOB; the
        // packed build replaces it wholesale.
        tree_am::build::<Self>(idx, ctx, |handle, ct| {
            let pairs: Vec<(Rect2, u64)> = extents
                .iter()
                .map(|(extent, rowid)| (self.strategy.to_rect(extent, ct), *rowid))
                .collect();
            grt_rstar::bulk_load_pairs(handle, &pairs, self.tree_opts).map_err(am_err)
        })?;
        ctx.trace.emit_with("RSTAR", 2, || {
            format!("bulk build: {} entries packed", rows.len())
        });
        Ok(true)
    }

    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let extent = key_extent(row)?;
        // A delete that condenses the tree moves entries between pages
        // and frees others, so an open scan restarts from the new root
        // (the same Section 5.5 rule as the GR-tree).
        tree_am::delete::<Self>(idx, ctx, DeletePolicy::RestartOnCondense, |tree, ct| {
            let rect = self.strategy.to_rect(&extent, ct);
            let out = tree.delete(rect, rowid.0).map_err(am_err)?;
            if !out.found {
                return Err(IdsError::AccessMethod(format!(
                    "entry for {rowid} not found in {} (horizon drift?)",
                    idx.index_name
                )));
            }
            Ok(out.condensed)
        })
        .map(drop)
    }

    fn am_scancost(
        &self,
        idx: &IndexDescriptor,
        qual: &QualDescriptor,
        ctx: &AmContext,
    ) -> Result<f64, IdsError> {
        tree_am::scancost(self, idx, qual, ctx)
    }

    fn am_supports_snapshot(&self) -> bool {
        true
    }

    fn am_stats(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<String, IdsError> {
        tree_am::with_tree::<Self, _>(idx, ctx, false, |tree, _ct| {
            let q = tree.quality().map_err(am_err)?;
            Ok(format!(
                "rstar {}: {} entries, height {}, {} pages, dead space {}, overlap {}",
                idx.index_name,
                tree.len(),
                tree.height(),
                tree.pages(),
                q.total_dead_space(),
                q.total_overlap(),
            ))
        })
    }

    fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::with_tree::<Self, _>(idx, ctx, false, |tree, _ct| tree.check().map_err(am_err))
    }
}
