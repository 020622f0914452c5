//! The `grt_*` access-method purpose functions (the paper's Table 5).
//!
//! The DataBlade keeps its private state in the index descriptor, as
//! the paper does: the `Tree` object (here a [`GrTree`] owning the open
//! BLOB handle) and the scan `Cursor` both live in "td", which is what
//! lets `grt_delete` reset an open cursor when a deletion condenses the
//! tree — the Section 5.5 compromise: "we decided to restart scanning
//! of the index only when the tree is actually condensed". That
//! machinery is shared with the R\*-tree baseline in
//! [`tree_am`]; this module keeps what is the GR-tree's
//! own: the type and opclass checks, bulk builds, and exact evaluation
//! of the qualification on each hit's extent.
//!
//! Every purpose function emits its step list in trace class `"GRT"`
//! (level 2), which is how the Table 5 reproduction prints the observed
//! steps of a live index.

use crate::curtime::{resolve_current_time, CurrentTimePolicy};
use crate::extent_type::{extent_to_value, key_extent, TYPE_NAME};
use crate::qual::{decompose, eval_full, Probe};
use crate::tree_am::{self, am_err, DeletePolicy, Opened, Row, TreeAm};
use grt_grtree::{bulk, root_bound, GrError, GrNode, GrProbe, GrTree, GrTreeOptions, LeafEntry};
use grt_ids::{
    AccessMethod, AmContext, DataType, IdsError, IndexDescriptor, QualDescriptor, RowId,
    ScanDescriptor, Value,
};
use grt_sbspace::{LoHandle, NodeStore, PageSource, ParallelScanStats, SearchTree, TreeProbe};
use grt_temporal::{Day, TimeExtent};

/// Blade configuration.
#[derive(Debug, Clone, Copy)]
pub struct GrTreeAmOptions {
    /// GR-tree construction parameters.
    pub tree: GrTreeOptions,
    /// Current-time caching policy (Section 5.4).
    pub curtime: CurrentTimePolicy,
    /// Scan-restart policy (Section 5.5).
    pub delete_policy: DeletePolicy,
}

impl Default for GrTreeAmOptions {
    fn default() -> Self {
        GrTreeAmOptions {
            tree: GrTreeOptions::default(),
            curtime: CurrentTimePolicy::PerStatement,
            delete_policy: DeletePolicy::RestartOnCondense,
        }
    }
}

/// The GR-tree secondary access method.
pub struct GrTreeAm {
    opts: GrTreeAmOptions,
}

impl GrTreeAm {
    /// Creates the access method with the given options.
    pub fn new(opts: GrTreeAmOptions) -> GrTreeAm {
        GrTreeAm { opts }
    }
}

impl Default for GrTreeAm {
    fn default() -> Self {
        GrTreeAm::new(GrTreeAmOptions::default())
    }
}

impl TreeAm for GrTreeAm {
    type Codec = GrNode;
    type Tree = GrTree;
    type Query = Probe;
    type Scan = ();
    type Seen = (u64, [u8; 16]);
    const METRICS: &'static str = "grtree";

    fn open_tree(handle: LoHandle) -> Result<GrTree, GrError> {
        GrTree::open(handle)
    }
    fn into_lo(tree: GrTree) -> Result<LoHandle, GrError> {
        tree.into_lo()
    }

    fn decompose(qual: &QualDescriptor) -> Result<Vec<Probe>, IdsError> {
        decompose(qual)
    }

    fn probe(&self, probe: &Probe, ct: Day) -> GrProbe {
        GrProbe::new(probe.pred, probe.query, ct)
    }

    fn seen(hit: &(TimeExtent, u64)) -> (u64, [u8; 16]) {
        GrProbe::key(hit)
    }

    fn accept(
        &self,
        _scan: &mut (),
        qual: &QualDescriptor,
        (extent, rowid): (TimeExtent, u64),
        ct: Day,
    ) -> Result<Option<Row>, IdsError> {
        Ok(eval_full(qual, &extent, ct)?.then(|| (RowId(rowid), vec![extent_to_value(&extent)])))
    }

    fn trace_parallel(&self, ctx: &AmContext, stats: &ParallelScanStats, rows: usize) {
        ctx.trace.emit_with("GRT", 2, || {
            format!(
                "grt_getnext: parallel scan: degree {}, {} frontier subtrees, {rows} rows",
                stats.workers, stats.frontier
            )
        });
    }

    fn coverage<S: PageSource>(
        &self,
        tree: &NodeStore<GrNode, S>,
        probes: &[Probe],
        ct: Day,
    ) -> Result<Option<(i128, i128)>, IdsError> {
        let bound = root_bound(tree, ct).map_err(am_err)?;
        Ok(bound.map(|b| {
            let overlap = probes
                .iter()
                .map(|p| b.intersection_area(&p.query.region(ct)))
                .sum();
            (b.area(), overlap)
        }))
    }
}

impl GrTreeAm {
    /// Emits the steps of purpose function `func`, in order.
    fn trace(&self, ctx: &AmContext, func: &str, steps: &[&str]) {
        for step in steps {
            ctx.trace.emit_with("GRT", 2, || format!("{func}: {step}"));
        }
    }
}

impl AccessMethod for GrTreeAm {
    fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        let f = "grt_create";
        self.trace(
            ctx,
            f,
            &["(1) Create object Tree and save its pointer in td"],
        );
        // (2) The access method handles only GRT_TimeExtent_t columns.
        match idx.column_types.first() {
            Some(DataType::Opaque(t)) if t.eq_ignore_ascii_case(TYPE_NAME) => {}
            other => {
                self.trace(ctx, f, &["(2) column type check failed"]);
                return Err(IdsError::AccessMethod(format!(
                    "grtree_am indexes {TYPE_NAME} columns, got {other:?}"
                )));
            }
        }
        self.trace(
            ctx,
            f,
            &["(2) column types accepted", "(3) operator class accepted"],
        );
        // (4) Duplicate indices on the same column are rejected by the
        // engine's catalog; (5) create the BLOB, (6) record its handle in
        // the table associated with the access method (SYSFRAGMENTS),
        // (7) open it and initialise the tree.
        let ct = resolve_current_time(self.opts.curtime, ctx);
        tree_am::create::<Self>(idx, ctx, ct, |lo| GrTree::create(lo, self.opts.tree))?;
        self.trace(
            ctx,
            f,
            &[
                "(5) Create a BLOB where the index will be stored",
                "(6) Insert index id and BLOB handle into the access-method table",
                "(7) Open the BLOB",
            ],
        );
        Ok(())
    }

    fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        let f = "grt_drop";
        self.trace(ctx, f, &["(1) Get a pointer to Tree object from td"]);
        if tree_am::drop_index::<Self>(idx, ctx)? {
            self.trace(ctx, f, &["(2) Drop the BLOB"]);
        }
        self.trace(
            ctx,
            f,
            &[
                "(3) Delete Tree object",
                "(4) Delete the record from the access-method table",
            ],
        );
        Ok(())
    }

    fn am_open(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        let ct = resolve_current_time(self.opts.curtime, ctx);
        let steps: &[&str] = match tree_am::open::<Self>(idx, ctx, ct)? {
            Opened::Already => &["(1) invoked right after grt_create: exit"],
            // The statement runs on a frozen space snapshot: no BLOB is
            // opened and no LO-level lock is taken — the scan mounts the
            // view at grt_beginscan.
            Opened::Snapshot => &["(2) snapshot scan: defer to frozen view"],
            Opened::Locked => &[
                "(2) Create object Tree and save its pointer in td",
                "(3) Get the BLOB handle from the access-method table",
                "(4) Open the BLOB",
            ],
        };
        self.trace(ctx, "grt_open", steps);
        Ok(())
    }

    fn am_close(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        let f = "grt_close";
        self.trace(ctx, f, &["(1) Get a pointer to Tree object from td"]);
        if tree_am::close::<Self>(idx)? {
            self.trace(ctx, f, &["(2) Close the BLOB"]);
        }
        self.trace(ctx, f, &["(3) Delete Tree object"]);
        Ok(())
    }

    fn am_beginscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let f = "grt_beginscan";
        self.trace(
            ctx,
            f,
            &[
                "(1) Get qualification descriptor qd from sd",
                "(2) Get index descriptor td from sd",
            ],
        );
        if tree_am::beginscan::<Self>(idx, &scan.qual, ctx, ())? {
            self.trace(
                ctx,
                f,
                &["(2a) snapshot scan: mount frozen view, no BLOB lock"],
            );
        }
        self.trace(
            ctx,
            f,
            &[
                "(3) Create Cursor object by calling Tree's search() method",
                "(4) Save a pointer to Cursor in td",
            ],
        );
        Ok(())
    }

    fn am_rescan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.trace(ctx, "grt_rescan", &["(1-2) Get Cursor from td"]);
        tree_am::rescan::<Self>(idx, ctx)?;
        self.trace(ctx, "grt_rescan", &["(3) Reset Cursor"]);
        Ok(())
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
        let out = tree_am::getnext_batch(self, idx, ctx, max_rows)?;
        let step = format!(
            "(1-2) Advance Cursor up to {max_rows} rows: {} row(s)",
            out.len()
        );
        self.trace(ctx, "grt_getnext_batch", &[&step]);
        Ok(out)
    }

    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.trace(ctx, "grt_endscan", &["(1-2) Get Cursor from td"]);
        tree_am::endscan::<Self>(idx, ctx)?;
        self.trace(ctx, "grt_endscan", &["(3) Delete Cursor"]);
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
            self.trace(
                ctx,
                "grt_insert",
                &[
                    "(1) Get a pointer to Tree object from td",
                    "(2) Form the entry from the newrow and the newrowid",
                ],
            );
            tree.insert(extent, rowid.0, ct).map_err(am_err)?;
            self.trace(
                ctx,
                "grt_insert",
                &["(3) Insert the entry via Tree's insert()"],
            );
            Ok(())
        })
    }

    fn am_build(
        &self,
        idx: &IndexDescriptor,
        rows: &[(RowId, Vec<Value>)],
        ctx: &AmContext,
    ) -> Result<bool, IdsError> {
        let mut entries = Vec::with_capacity(rows.len());
        for (rid, keys) in rows {
            let extent = key_extent(keys)?;
            entries.push(LeafEntry {
                extent,
                rowid: rid.0,
            });
        }
        let count = entries.len();
        // grt_create already initialised an empty tree in the BLOB; the
        // packed build replaces it wholesale.
        tree_am::build::<Self>(idx, ctx, |lo, ct| {
            self.trace(
                ctx,
                "grt_build",
                &["(1) Get a pointer to Tree object from td"],
            );
            bulk::bulk_load(lo, entries, ct, self.opts.tree).map_err(am_err)
        })?;
        let step = format!("(2) Bulk-load {count} entries via STR packing");
        self.trace(ctx, "grt_build", &[&step]);
        Ok(true)
    }

    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let f = "grt_delete";
        let extent = key_extent(row)?;
        let restarted = tree_am::delete::<Self>(idx, ctx, self.opts.delete_policy, |tree, ct| {
            self.trace(
                ctx,
                f,
                &[
                    "(1) Get a pointer to Tree object from td",
                    "(2-3) Locate the entry for oldrowid",
                ],
            );
            let outcome = tree.delete(&extent, rowid.0, ct).map_err(am_err)?;
            if !outcome.found {
                return Err(IdsError::AccessMethod(format!(
                    "entry for {rowid} not found in {}",
                    idx.index_name
                )));
            }
            self.trace(ctx, f, &["(4) Delete the entry via Tree's delete()"]);
            Ok(outcome.condensed)
        })?;
        if restarted {
            self.trace(ctx, f, &["(5) Tree condensed: reset Cursor"]);
        }
        Ok(())
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
        tree_am::with_tree::<Self, _>(idx, ctx, false, |tree, ct| {
            let q = tree.quality(ct).map_err(am_err)?;
            Ok(format!(
                "grtree {}: {} entries, height {}, {} pages, dead space {}, overlap {}, \
                 {} stair / {} hidden / {} growing-rect bounds",
                idx.index_name,
                tree.len(),
                tree.height(),
                tree.pages(),
                q.total_dead_space(),
                q.total_overlap(),
                q.stair_bounds,
                q.hidden_bounds,
                q.growing_rect_bounds,
            ))
        })
    }

    fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::with_tree::<Self, _>(idx, ctx, false, |tree, ct| tree.check(ct).map_err(am_err))
    }
}
