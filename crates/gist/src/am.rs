//! The generic tree as a DataBlade: `gist_am` over an `IntRange_t`
//! opaque type — closing the loop on Section 7's "it is also possible
//! to implement such a generic access method as a DataBlade".
//!
//! The access method is the *generic skeleton*; the operator class
//! carries the range strategy function, exactly the extension pattern
//! the paper envisions. Like `grtree_am` and `rstar_am`, it is a
//! [`TreeAm`] on the blade's shared adaptor.

use crate::ext::{IntRange, IntRangeExt};
use crate::node::RawEntry;
use crate::tree::{GistExtension, GistNodes, GistProbe, GistTree, GistTreeOptions};
use crate::GistError;
use grt_blade::tree_am::{self, am_err, DeletePolicy, Row, TreeAm};
use grt_ids::opaque::OpaqueType;
use grt_ids::vii::QualNode;
use grt_ids::{
    AccessMethod, AmContext, DataType, Database, IdsError, IndexDescriptor, QualDescriptor, RowId,
    ScanDescriptor, Value,
};
use grt_sbspace::{LoHandle, NodeStore, PageSource, ParallelScanStats, SearchTree, TreeProbe};
use grt_temporal::Day;
use std::sync::Arc;

/// The opaque type name.
pub const RANGE_TYPE: &str = "IntRange_t";

/// Builds the `IntRange_t` opaque type (`"lo..hi"` text form).
pub fn int_range_type() -> OpaqueType {
    OpaqueType::new(
        RANGE_TYPE,
        Arc::new(|text: &str| {
            let (lo, hi) = text
                .split_once("..")
                .ok_or_else(|| IdsError::Type(format!("expected lo..hi, got {text:?}")))?;
            let lo: i64 = lo.trim().parse().map_err(|_| IdsError::Type("lo".into()))?;
            let hi: i64 = hi.trim().parse().map_err(|_| IdsError::Type("hi".into()))?;
            if lo > hi {
                return Err(IdsError::Type(format!("inverted range {lo}..{hi}")));
            }
            let mut out = lo.to_le_bytes().to_vec();
            out.extend_from_slice(&hi.to_le_bytes());
            Ok(out)
        }),
        Arc::new(|bytes: &[u8]| {
            let r = range_from_bytes(bytes)?;
            Ok(format!("{}..{}", r.lo, r.hi))
        }),
    )
}

fn range_from_bytes(bytes: &[u8]) -> Result<IntRange, IdsError> {
    if bytes.len() != 16 {
        return Err(IdsError::Type("IntRange_t needs 16 bytes".into()));
    }
    Ok(IntRange {
        lo: i64::from_le_bytes(bytes[0..8].try_into().unwrap()),
        hi: i64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    })
}

fn range_of_value(v: &Value) -> Result<IntRange, IdsError> {
    match v {
        Value::Opaque { type_name, bytes } if type_name.eq_ignore_ascii_case(RANGE_TYPE) => {
            range_from_bytes(bytes)
        }
        other => Err(IdsError::Type(format!(
            "expected {RANGE_TYPE}, got {other}"
        ))),
    }
}

fn range_to_value(r: &IntRange) -> Value {
    let mut bytes = r.lo.to_le_bytes().to_vec();
    bytes.extend_from_slice(&r.hi.to_le_bytes());
    Value::Opaque {
        type_name: RANGE_TYPE.to_string(),
        bytes,
    }
}

/// The generic access method instantiated for integer ranges. Index
/// state, scans, restarts and costing come from the shared
/// [`tree_am`] adaptor; what is left here is the range type.
#[derive(Default)]
pub struct GistRangeAm;

/// The range a row's key column holds.
fn range_of_row(row: &[Value]) -> Result<IntRange, IdsError> {
    range_of_value(
        row.first()
            .ok_or_else(|| IdsError::AccessMethod("no key column".into()))?,
    )
}

impl TreeAm for GistRangeAm {
    type Codec = GistNodes<IntRangeExt>;
    type Tree = GistTree<IntRangeExt>;
    type Query = IntRange;
    type Scan = ();
    type Seen = (u64, Vec<u8>);
    const METRICS: &'static str = "gist";

    fn open_tree(handle: LoHandle) -> Result<GistTree<IntRangeExt>, GistError> {
        GistTree::open(IntRangeExt, handle)
    }
    fn into_lo(tree: GistTree<IntRangeExt>) -> Result<LoHandle, GistError> {
        tree.into_lo()
    }

    /// `RangeOverlaps(column, constant)` probes its constant; no
    /// qualification probes every range.
    fn decompose(qual: &QualDescriptor) -> Result<Vec<IntRange>, IdsError> {
        let query = match &qual.root {
            Some(QualNode::Simple(q)) if q.func.eq_ignore_ascii_case("RangeOverlaps") => {
                range_of_value(q.constant.as_ref().ok_or_else(|| {
                    IdsError::AccessMethod("RangeOverlaps needs a constant".into())
                })?)?
            }
            None => IntRange::new(i64::MIN / 2, i64::MAX / 2),
            other => {
                return Err(IdsError::AccessMethod(format!(
                    "unsupported qualification {other:?}"
                )))
            }
        };
        Ok(vec![query])
    }

    fn probe(&self, query: &IntRange, _ct: Day) -> GistProbe<IntRangeExt> {
        GistProbe::new(IntRangeExt, *query)
    }

    fn seen(hit: &RawEntry) -> (u64, Vec<u8>) {
        GistProbe::<IntRangeExt>::key(hit)
    }

    /// Leaf consistency is exact overlap, so every hit is a row.
    fn accept(
        &self,
        _scan: &mut (),
        _qual: &QualDescriptor,
        hit: RawEntry,
        _ct: Day,
    ) -> Result<Option<Row>, IdsError> {
        let key = IntRangeExt.decode_key(&hit.key).map_err(am_err)?;
        Ok(Some((RowId(hit.payload), vec![range_to_value(&key)])))
    }

    fn trace_parallel(&self, ctx: &AmContext, stats: &ParallelScanStats, rows: usize) {
        ctx.trace.emit_with("GIST", 2, || {
            format!(
                "parallel scan: degree {}, {} frontier subtrees, {rows} rows",
                stats.workers, stats.frontier
            )
        });
    }

    /// The union of the root's keys against each query range.
    fn coverage<S: PageSource>(
        &self,
        tree: &NodeStore<GistNodes<IntRangeExt>, S>,
        queries: &[IntRange],
        _ct: Day,
    ) -> Result<Option<(i128, i128)>, IdsError> {
        if tree.is_empty() {
            return Ok(None);
        }
        let root = tree.read_node(tree.root()).map_err(am_err)?;
        let keys = root
            .entries
            .iter()
            .map(|e| IntRangeExt.decode_key(&e.key))
            .collect::<Result<Vec<_>, _>>()
            .map_err(am_err)?;
        let b = IntRangeExt.union(&keys);
        let len = |lo: i64, hi: i64| (hi as i128 - lo as i128 + 1).max(0);
        let overlap = queries
            .iter()
            .map(|q| len(q.lo.max(b.lo), q.hi.min(b.hi)))
            .sum();
        Ok(Some((len(b.lo, b.hi), overlap)))
    }
}

impl AccessMethod for GistRangeAm {
    fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        match idx.column_types.first() {
            Some(DataType::Opaque(t)) if t.eq_ignore_ascii_case(RANGE_TYPE) => {}
            other => {
                return Err(IdsError::AccessMethod(format!(
                    "gist_am indexes {RANGE_TYPE} columns, got {other:?}"
                )))
            }
        }
        tree_am::create::<Self>(idx, ctx, ctx.clock.today(), |handle| {
            GistTree::create(IntRangeExt, handle, GistTreeOptions::default())
        })
    }

    fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::drop_index::<Self>(idx, ctx).map(drop)
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
        tree_am::beginscan::<Self>(idx, &scan.qual, ctx, ()).map(drop)
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
    ) -> Result<Option<Row>, IdsError> {
        Ok(tree_am::getnext_batch(self, idx, ctx, 1)?.pop())
    }

    fn am_getnext_batch(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        max_rows: usize,
        ctx: &AmContext,
    ) -> Result<Vec<Row>, IdsError> {
        tree_am::getnext_batch(self, idx, ctx, max_rows)
    }

    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        tree_am::endscan::<Self>(idx, ctx).map(drop)
    }

    fn am_insert(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let key = range_of_row(row)?;
        tree_am::with_tree::<Self, _>(idx, ctx, true, |tree, _ct| {
            tree.insert(&key, rowid.0).map_err(am_err)
        })
    }

    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> Result<(), IdsError> {
        let key = range_of_row(row)?;
        // A condensing delete restarts an open scan (Section 5.5).
        tree_am::delete::<Self>(idx, ctx, DeletePolicy::RestartOnCondense, |tree, _ct| {
            let out = tree.delete(&key, rowid.0).map_err(am_err)?;
            if !out.found {
                return Err(IdsError::AccessMethod(format!("entry for {rowid} missing")));
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

    fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<(), IdsError> {
        tree_am::with_tree::<Self, _>(idx, ctx, false, |tree, _ct| tree.check().map_err(am_err))
    }
}

/// Installs the GiST range DataBlade: the opaque type, the strategy
/// function, the access method, and its operator class.
pub fn install_gist_blade(db: &Database) -> Result<(), IdsError> {
    db.install_opaque_type(int_range_type());
    db.install_library("gist.bld", Arc::new(GistRangeAm));
    for sym in ["gst_create", "gst_drop", "gst_getnext"] {
        db.install_symbol(
            &format!("usr/gist.bld({sym})"),
            Arc::new(|_args: &[Value], _ctx: &AmContext| {
                Err(IdsError::Routine("purpose function".into()))
            }),
        );
    }
    db.install_symbol(
        "usr/gist.bld(range_overlaps)",
        Arc::new(|args: &[Value], _ctx: &AmContext| {
            let [a, b] = args else {
                return Err(IdsError::Type("RangeOverlaps(range, range)".into()));
            };
            Ok(Value::Bool(
                range_of_value(a)?.overlaps(&range_of_value(b)?),
            ))
        }),
    );
    let conn = db.connect();
    conn.exec_script(
        "CREATE FUNCTION gst_create(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_create)' LANGUAGE c;\
         CREATE FUNCTION gst_drop(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_drop)' LANGUAGE c;\
         CREATE FUNCTION gst_getnext(pointer) RETURNING int \
           EXTERNAL NAME 'usr/gist.bld(gst_getnext)' LANGUAGE c;\
         CREATE FUNCTION RangeOverlaps(IntRange_t, IntRange_t) RETURNING boolean \
           EXTERNAL NAME 'usr/gist.bld(range_overlaps)' LANGUAGE c;\
         CREATE SECONDARY ACCESS_METHOD gist_am ( \
           am_create = gst_create, am_drop = gst_drop, am_getnext = gst_getnext, \
           am_sptype = 'S' );\
         CREATE OPCLASS gist_range_ops FOR gist_am STRATEGIES(RangeOverlaps);",
    )?;
    Ok(())
}
