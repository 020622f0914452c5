//! Indexing now-relative bitemporal data with a plain R\*-tree — the
//! comparison points of the GR-tree evaluation.
//!
//! An ordinary spatial index cannot store growing regions, so `UC` and
//! `NOW` must be substituted by ground values at insertion time. Two
//! classical substitutions are provided:
//!
//! * [`NowStrategy::MaxTimestamp`] — replace the variables with the
//!   maximum timestamp. Sound forever, but every now-relative tuple
//!   becomes a huge rectangle reaching to the end of time: bounding
//!   rectangles overlap massively and queries drown in false positives
//!   that exact refinement must filter out.
//! * [`NowStrategy::Horizon`] — replace the variables with the end of
//!   the current *time quantum* (`slack` days). Rectangles stay small,
//!   but every quantum roll-over forces all open tuples to be deleted
//!   and reinserted (the refresh cost the GR-tree avoids), and a missed
//!   refresh silently loses answers.
//!
//! Candidates from the rectangle index are *supersets* of the true
//! answer; [`refine`] applies the exact bitemporal predicate. The ratio
//! of candidates to true matches is the headline inefficiency the
//! benchmarks report.

use crate::geom::{Rect2, SpatialPredicate};
use crate::search::RectProbe;
use crate::tree::RStarTree;
use crate::Result;
use grt_temporal::{Day, Predicate, TimeExtent, TtEnd, VtEnd};

/// How `UC`/`NOW` are grounded for storage in a rectangle index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NowStrategy {
    /// Substitute the maximum timestamp.
    MaxTimestamp,
    /// Substitute the end of the `slack`-day quantum containing the
    /// insertion time; requires a refresh at each quantum roll-over.
    Horizon {
        /// Quantum length in days (must be positive).
        slack: i32,
    },
}

impl NowStrategy {
    /// End of the quantum containing `ct` (Horizon only).
    pub fn quantum_end(self, ct: Day) -> Day {
        match self {
            NowStrategy::MaxTimestamp => Day::MAX,
            NowStrategy::Horizon { slack } => {
                let s = slack.max(1);
                Day((ct.0.div_euclid(s) + 1) * s)
            }
        }
    }

    /// The rectangle stored for `extent` when inserted at `ct`.
    ///
    /// Deterministic in `(extent, quantum(ct))`, so a deletion within
    /// the same quantum recomputes the identical rectangle.
    pub fn to_rect(self, extent: &TimeExtent, ct: Day) -> Rect2 {
        let cap = self.quantum_end(ct);
        let x2 = match extent.tt_end {
            TtEnd::Ground(d) => d,
            TtEnd::Uc => cap,
        };
        let y2 = match extent.vt_end {
            VtEnd::Ground(d) => d,
            // NOW can never exceed the (resolved) transaction-time end.
            VtEnd::Now => x2,
        };
        Rect2::new(extent.tt_begin.0, x2.0, extent.vt_begin.0, y2.0)
    }

    /// The query rectangle for a query extent evaluated at `ct`: the MBR
    /// of the exactly-resolved query region.
    pub fn query_rect(self, query: &TimeExtent, ct: Day) -> Rect2 {
        let mbr = query.region(ct).mbr();
        Rect2::new(mbr.tt1.0, mbr.tt2.0, mbr.vt1.0, mbr.vt2.0)
    }

    /// The rectangle probe for bitemporal `pred` against `query` at
    /// `ct`. The rectangle test must never prune a true match, so the
    /// widest sound spatial predicate (overlap) is used for every
    /// bitemporal predicate except Contains, where the stored rectangle
    /// must at least cover the query MBR.
    pub fn probe(self, pred: Predicate, query: &TimeExtent, ct: Day) -> RectProbe {
        let pred = match pred {
            Predicate::Contains => SpatialPredicate::Contains,
            _ => SpatialPredicate::Overlap,
        };
        RectProbe {
            pred,
            query: self.query_rect(query, ct),
        }
    }
}

/// A candidate set from the rectangle index plus the exact answer after
/// refinement.
#[derive(Debug, Clone, Default)]
pub struct RefinedSearch {
    /// Rowids whose stored rectangle passed the index test.
    pub candidates: Vec<u64>,
    /// Rowids whose exact bitemporal region satisfies the predicate.
    pub matches: Vec<u64>,
}

/// Runs an index search followed by exact refinement. `lookup` maps a
/// candidate rowid to its stored time extent (the base-table fetch whose
/// count is precisely the I/O the paper's refinement step pays).
pub fn refine(
    tree: &RStarTree,
    strategy: NowStrategy,
    pred: Predicate,
    query: &TimeExtent,
    ct: Day,
    mut lookup: impl FnMut(u64) -> TimeExtent,
) -> Result<RefinedSearch> {
    let probe = strategy.probe(pred, query, ct);
    let candidates = tree.search(probe.pred, &probe.query)?;
    let mut out = RefinedSearch {
        matches: Vec::new(),
        candidates,
    };
    for &rowid in &out.candidates {
        let stored = lookup(rowid);
        if pred.eval(&stored, query, ct) {
            out.matches.push(rowid);
        }
    }
    Ok(out)
}

/// Entries due for refresh under the Horizon strategy: all open
/// (now-relative) extents once `new_ct` crosses into a new quantum.
/// Returns the `(old_rect, new_rect)` pair per entry.
pub fn horizon_refresh_plan(
    strategy: NowStrategy,
    open_entries: &[(u64, TimeExtent)],
    old_ct: Day,
    new_ct: Day,
) -> Vec<(u64, Rect2, Rect2)> {
    if strategy.quantum_end(old_ct) == strategy.quantum_end(new_ct) {
        return Vec::new();
    }
    open_entries
        .iter()
        .filter(|(_, e)| e.is_now_relative())
        .map(|(id, e)| {
            (
                *id,
                strategy.to_rect(e, old_ct),
                strategy.to_rect(e, new_ct),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{RStarOptions, RStarTree};
    use grt_sbspace::{IsolationLevel, LockMode, Sbspace, SbspaceOptions};

    fn fresh_tree() -> RStarTree {
        let sb = Sbspace::mem(SbspaceOptions {
            pool_pages: 4096,
            ..Default::default()
        });
        let txn = sb.begin(IsolationLevel::ReadCommitted);
        let lo = sb.create_lo(&txn).unwrap();
        let h = sb.open_lo(&txn, lo, LockMode::Exclusive).unwrap();
        std::mem::forget(txn);
        std::mem::forget(sb);
        RStarTree::create(
            h,
            RStarOptions {
                max_entries: 8,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn extent(ttb: i32, tte: Option<i32>, vtb: i32, vte: Option<i32>) -> TimeExtent {
        TimeExtent::from_parts(
            Day(ttb),
            tte.map_or(TtEnd::Uc, |x| TtEnd::Ground(Day(x))),
            Day(vtb),
            vte.map_or(VtEnd::Now, |x| VtEnd::Ground(Day(x))),
        )
        .unwrap()
    }

    fn history(n: i32) -> Vec<(u64, TimeExtent)> {
        (0..n)
            .map(|i| {
                let e = match i % 4 {
                    0 => extent(i, None, i, None),                    // growing stair
                    1 => extent(i, Some(i + 20), i, None),            // stopped stair
                    2 => extent(i, None, i.max(0) - 5, Some(i + 30)), // growing rect
                    _ => extent(i, Some(i + 10), i - 3, Some(i + 8)), // static rect
                };
                (i as u64, e)
            })
            .collect()
    }

    fn check_strategy(strategy: NowStrategy) {
        let data = history(200);
        let mut tree = fresh_tree();
        let insert_ct = Day(250); // after all tt_begins
        for (id, e) in &data {
            tree.insert(strategy.to_rect(e, insert_ct), *id).unwrap();
        }
        let ct = strategy.quantum_end(insert_ct).pred().min(Day(400));
        let ct = if matches!(strategy, NowStrategy::MaxTimestamp) {
            Day(400)
        } else {
            ct
        };
        let queries = [
            extent(100, Some(150), 50, Some(160)),
            extent(0, None, 0, None),
            extent(240, Some(245), 10, Some(20)),
        ];
        for q in &queries {
            for pred in Predicate::ALL {
                let got = refine(&tree, strategy, pred, q, ct, |id| data[id as usize].1).unwrap();
                let mut expected: Vec<u64> = data
                    .iter()
                    .filter(|(_, e)| pred.eval(e, q, ct))
                    .map(|(id, _)| *id)
                    .collect();
                let mut matches = got.matches.clone();
                expected.sort_unstable();
                matches.sort_unstable();
                assert_eq!(matches, expected, "{strategy:?} {pred} ct={ct:?}");
                assert!(got.candidates.len() >= got.matches.len());
            }
        }
    }

    #[test]
    fn max_timestamp_is_exact_after_refinement() {
        check_strategy(NowStrategy::MaxTimestamp);
    }

    #[test]
    fn horizon_is_exact_within_quantum() {
        check_strategy(NowStrategy::Horizon { slack: 1000 });
    }

    #[test]
    fn horizon_needs_refresh_across_quanta() {
        let strategy = NowStrategy::Horizon { slack: 50 };
        let open = vec![(0u64, extent(10, None, 10, None))];
        // Same quantum: nothing to do.
        assert!(horizon_refresh_plan(strategy, &open, Day(60), Day(70)).is_empty());
        // Quantum roll-over: the open entry must be reinserted.
        let plan = horizon_refresh_plan(strategy, &open, Day(60), Day(120));
        assert_eq!(plan.len(), 1);
        let (_, old_rect, new_rect) = plan[0];
        assert!(new_rect.x2 > old_rect.x2);
        // Static entries never need refreshing.
        let closed = vec![(1u64, extent(10, Some(30), 5, Some(20)))];
        assert!(horizon_refresh_plan(strategy, &closed, Day(60), Day(500)).is_empty());
    }

    #[test]
    fn max_timestamp_produces_more_candidates_than_matches() {
        // The headline pathology: now-relative entries stored to the end
        // of time match almost any query window in transaction time.
        let data = history(200);
        let mut tree = fresh_tree();
        for (id, e) in &data {
            tree.insert(NowStrategy::MaxTimestamp.to_rect(e, Day(250)), *id)
                .unwrap();
        }
        // A query window above the v = t diagonal: the true stairs never
        // reach it, but their max-timestamp rectangles claim they do.
        let q = extent(500, Some(510), 520, Some(560));
        let got = refine(
            &tree,
            NowStrategy::MaxTimestamp,
            Predicate::Overlaps,
            &q,
            Day(600),
            |id| data[id as usize].1,
        )
        .unwrap();
        assert!(
            got.candidates.len() > got.matches.len(),
            "expected false positives: {} candidates, {} matches",
            got.candidates.len(),
            got.matches.len()
        );
    }
}
