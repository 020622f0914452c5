//! Forwarding wrappers that time a layer from outside through its
//! public trait: the storage [`Backend`], the [`WalStore`], and the
//! blade's [`AccessMethod`]. Every trait method is forwarded, defaulted
//! ones included, so a wrapped engine takes exactly the code paths of
//! an unwrapped one (`FileBackend` keeps its coalescing `read_pages`,
//! `GrTreeAm` keeps its snapshot reads).

use crate::span::{span, Guard};
use grt_ids::{
    AccessMethod, AmContext, IndexDescriptor, QualDescriptor, RowId, ScanDescriptor, Value,
};
use grt_sbspace::{Backend, PageBuf, PageId, WalStore, PAGE_SIZE};
use std::sync::Arc;

type SbResult<T> = Result<T, grt_sbspace::SbError>;
type IdsResult<T> = Result<T, grt_ids::IdsError>;

/// A span that records `amount` pages or bytes.
fn span_of(name: &'static str, amount: usize) -> Option<Guard> {
    let mut s = span(name);
    if let Some(s) = &mut s {
        s.amount(amount);
    }
    s
}

/// A page store timed as layer `backend`; spans carry page counts.
pub struct TracedBackend<B>(pub B);

impl<B: Backend> Backend for TracedBackend<B> {
    fn read_page(&self, pid: PageId, out: &mut [u8; PAGE_SIZE]) -> SbResult<()> {
        let _s = span_of("backend.read", 1);
        self.0.read_page(pid, out)
    }

    fn write_page(&self, pid: PageId, data: &[u8; PAGE_SIZE]) -> SbResult<()> {
        let _s = span_of("backend.write", 1);
        self.0.write_page(pid, data)
    }

    fn page_count(&self) -> u32 {
        self.0.page_count()
    }

    fn sync(&self) -> SbResult<()> {
        let _s = span("backend.sync");
        self.0.sync()
    }

    fn read_pages(&self, pids: &[PageId], out: &mut [PageBuf]) -> SbResult<()> {
        let _s = span_of("backend.read", pids.len());
        self.0.read_pages(pids, out)
    }

    fn write_pages(&self, pages: &[(PageId, &[u8; PAGE_SIZE])]) -> SbResult<()> {
        let _s = span_of("backend.write", pages.len());
        self.0.write_pages(pages)
    }
}

/// A write-ahead log timed as layer `wal`; appends carry byte counts.
/// The log is shared, so the harness can still reach it once the space
/// owns the wrapper.
pub struct TracedWal(pub Arc<dyn WalStore>);

impl WalStore for TracedWal {
    fn append(&self, bytes: &[u8]) -> SbResult<()> {
        let _s = span_of("wal.append", bytes.len());
        self.0.append(bytes)
    }

    fn sync(&self) -> SbResult<()> {
        let _s = span("wal.sync");
        self.0.sync()
    }

    fn truncate(&self) -> SbResult<()> {
        let _s = span("wal.truncate");
        self.0.truncate()
    }

    fn read_segment(&self, seg: u64) -> SbResult<Vec<u8>> {
        let _s = span("wal.read");
        self.0.read_segment(seg)
    }

    fn segments(&self) -> SbResult<Vec<u64>> {
        self.0.segments()
    }

    fn active_segment(&self) -> u64 {
        self.0.active_segment()
    }

    fn roll(&self) -> SbResult<u64> {
        let _s = span("wal.roll");
        self.0.roll()
    }

    fn recycle_below(&self, seg: u64) -> SbResult<usize> {
        let _s = span("wal.recycle");
        self.0.recycle_below(seg)
    }

    fn live_bytes(&self) -> SbResult<u64> {
        self.0.live_bytes()
    }

    fn appended_total(&self) -> u64 {
        self.0.appended_total()
    }

    fn read_all(&self) -> SbResult<Vec<u8>> {
        let _s = span("wal.read");
        self.0.read_all()
    }
}

/// The blade's purpose functions timed as layer `am`; batch fetches
/// carry row counts.
pub struct TracedAm(pub Arc<dyn AccessMethod>);

impl AccessMethod for TracedAm {
    fn am_create(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<()> {
        let _s = span("am.create");
        self.0.am_create(idx, ctx)
    }

    fn am_drop(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<()> {
        let _s = span("am.drop");
        self.0.am_drop(idx, ctx)
    }

    fn am_open(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<()> {
        let _s = span("am.open");
        self.0.am_open(idx, ctx)
    }

    fn am_close(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<()> {
        let _s = span("am.close");
        self.0.am_close(idx, ctx)
    }

    fn am_beginscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.beginscan");
        self.0.am_beginscan(idx, scan, ctx)
    }

    fn am_rescan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.rescan");
        self.0.am_rescan(idx, scan, ctx)
    }

    fn am_getnext(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> IdsResult<Option<(RowId, Vec<Value>)>> {
        let _s = span("am.getnext");
        self.0.am_getnext(idx, scan, ctx)
    }

    fn am_getnext_batch(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        max_rows: usize,
        ctx: &AmContext,
    ) -> IdsResult<Vec<(RowId, Vec<Value>)>> {
        let mut s = span("am.getnext_batch");
        let rows = self.0.am_getnext_batch(idx, scan, max_rows, ctx)?;
        if let Some(s) = &mut s {
            s.amount(rows.len());
        }
        Ok(rows)
    }

    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.endscan");
        self.0.am_endscan(idx, scan, ctx)
    }

    fn am_insert(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.insert");
        self.0.am_insert(idx, row, rowid, ctx)
    }

    fn am_build(
        &self,
        idx: &IndexDescriptor,
        rows: &[(RowId, Vec<Value>)],
        ctx: &AmContext,
    ) -> IdsResult<bool> {
        let _s = span("am.build");
        self.0.am_build(idx, rows, ctx)
    }

    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.delete");
        self.0.am_delete(idx, row, rowid, ctx)
    }

    fn am_update(
        &self,
        idx: &IndexDescriptor,
        old_row: &[Value],
        old_rowid: RowId,
        new_row: &[Value],
        new_rowid: RowId,
        ctx: &AmContext,
    ) -> IdsResult<()> {
        let _s = span("am.update");
        self.0
            .am_update(idx, old_row, old_rowid, new_row, new_rowid, ctx)
    }

    fn am_scancost(
        &self,
        idx: &IndexDescriptor,
        qual: &QualDescriptor,
        ctx: &AmContext,
    ) -> IdsResult<f64> {
        let _s = span("am.scancost");
        self.0.am_scancost(idx, qual, ctx)
    }

    fn am_stats(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<String> {
        let _s = span("am.stats");
        self.0.am_stats(idx, ctx)
    }

    fn am_check(&self, idx: &IndexDescriptor, ctx: &AmContext) -> IdsResult<()> {
        let _s = span("am.check");
        self.0.am_check(idx, ctx)
    }

    fn am_supports_snapshot(&self) -> bool {
        self.0.am_supports_snapshot()
    }
}
