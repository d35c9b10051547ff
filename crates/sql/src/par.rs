//! The morsel-driven parallel execution runtime.
//!
//! The paper's evaluation applies a generic UDF 10,000× per query, and
//! PR 1's warm worker pool gives the isolated designs several executors —
//! yet a serial Volcano pipeline funnels every invocation through one
//! thread and (for the isolated designs) one pooled worker. This module is
//! the substrate [`crate::parallel`]'s `Gather` path is built on:
//!
//! * [`MorselDispenser`] — a lock-free dispenser handing out page-range
//!   *morsels* of a heap scan. Morsel indexes are deterministic, so a
//!   gather that re-assembles per-morsel results in index order
//!   reproduces the serial scan's output order exactly.
//! * [`run_team`] — spawn a team of `dop` named scoped threads, collect
//!   each worker's `Result` in worker order, and convert panics into
//!   execution errors instead of poisoning the process.
//! * [`ParMetrics`] — handles for the `par.*` counters/histograms
//!   (queries, morsels, workers, steals, clamps, per-worker busy time)
//!   every parallel query reports into the global registry.
//!
//! The module deliberately knows nothing about tables, plans, or UDFs:
//! it is one notion of "a team of workers draining morsels".

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;

/// One unit of scan work: the half-open page range `[start_page, end_page)`
/// of a heap file, plus the morsel's position in the dispense order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// 0-based position in the dispense order; gathers that sort by this
    /// index reproduce the serial scan order.
    pub index: u32,
    /// First heap page of the morsel (inclusive).
    pub start_page: u32,
    /// One past the last heap page of the morsel (exclusive).
    pub end_page: u32,
}

/// A shared dispenser carving the page range `[start, end)` into
/// fixed-size morsels, handed out to whichever worker asks next. One
/// atomic fetch-add per morsel; no locks.
pub struct MorselDispenser {
    next: AtomicU32,
    start: u32,
    end: u32,
    morsel_pages: u32,
    dispatched: Arc<obs::Counter>,
}

impl MorselDispenser {
    /// Dispense `[start, end)` in chunks of `morsel_pages` pages
    /// (`morsel_pages` is floored at 1).
    pub fn new(start: u32, end: u32, morsel_pages: u32) -> MorselDispenser {
        MorselDispenser {
            next: AtomicU32::new(0),
            start,
            end: end.max(start),
            morsel_pages: morsel_pages.max(1),
            dispatched: obs::global().counter("par.morsels"),
        }
    }

    /// Total number of morsels this dispenser will hand out.
    pub fn morsel_count(&self) -> u32 {
        (self.end - self.start).div_ceil(self.morsel_pages)
    }

    /// Claim the next morsel, or `None` when the range is exhausted.
    pub fn next(&self) -> Option<Morsel> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        let start_page = self
            .start
            .checked_add(index.checked_mul(self.morsel_pages)?)?;
        if start_page >= self.end {
            return None;
        }
        self.dispatched.inc();
        Some(Morsel {
            index,
            start_page,
            end_page: start_page.saturating_add(self.morsel_pages).min(self.end),
        })
    }
}

/// Pick a morsel size (in pages) for `data_pages` of scan input split
/// across `dop` workers: aim for ~4 morsels per worker so a slow morsel
/// (an expensive UDF, a pool hiccup) rebalances onto idle threads, but
/// never smaller than 1 page nor larger than 64. Deterministic in its
/// inputs, so a plan's morsel layout is reproducible.
pub fn morsel_pages_for(data_pages: u32, dop: usize) -> u32 {
    let target_morsels = (dop as u32).saturating_mul(4).max(1);
    (data_pages / target_morsels).clamp(1, 64)
}

/// Run `dop` worker threads (`jaguar-par-0` … `jaguar-par-{dop-1}`), each
/// executing `f(worker_index)`, and return their results in worker order.
/// A panicking worker yields an `Execution` error rather than tearing the
/// process down; scoped threads let `f` borrow from the caller's stack
/// (the plan, the dispenser, the cancel token).
pub fn run_team<T, F>(dop: usize, f: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let metrics = metrics();
    metrics.workers.add(dop as u64);
    std::thread::scope(|s| {
        let f = &f; // share, don't move: workers borrow the one closure
        let handles: Vec<_> = (0..dop)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("jaguar-par-{i}"))
                    .spawn_scoped(s, move || f(i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h {
                Ok(h) => match h.join() {
                    Ok(r) => r,
                    Err(_) => Err(JaguarError::Execution(
                        "parallel worker thread panicked".into(),
                    )),
                },
                Err(e) => Err(JaguarError::Execution(format!(
                    "could not spawn parallel worker thread: {e}"
                ))),
            })
            .collect()
    })
}

/// Handles for the `par.*` metrics in the global registry. Resolve once
/// per query, then increment lock-free.
pub struct ParMetrics {
    /// Queries that took the parallel (Gather) path.
    pub queries: Arc<obs::Counter>,
    /// Morsels handed out across all dispensers.
    pub morsels: Arc<obs::Counter>,
    /// Worker threads launched.
    pub workers: Arc<obs::Counter>,
    /// Morsels a worker took beyond its fair share (`total / dop`) — the
    /// work-stealing imbalance a shared dispenser absorbs.
    pub steals: Arc<obs::Counter>,
    /// Times a query's requested dop was clamped to the worker-pool size.
    pub dop_clamped: Arc<obs::Counter>,
    /// Per-worker busy time (scan start to last morsel done).
    pub worker_busy: Arc<obs::Histogram>,
}

/// Resolve the `par.*` metric handles from the global registry.
pub fn metrics() -> ParMetrics {
    let reg = obs::global();
    ParMetrics {
        queries: reg.counter("par.queries"),
        morsels: reg.counter("par.morsels"),
        workers: reg.counter("par.workers"),
        steals: reg.counter("par.steals"),
        dop_clamped: reg.counter("par.dop_clamped"),
        worker_busy: reg.histogram("par.worker_busy_us"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispenser_partitions_range_exactly_once() {
        let d = MorselDispenser::new(1, 23, 4);
        assert_eq!(d.morsel_count(), 6);
        let mut seen = Vec::new();
        let mut expect_index = 0;
        while let Some(m) = d.next() {
            assert_eq!(m.index, expect_index);
            expect_index += 1;
            assert!(m.start_page < m.end_page);
            seen.extend(m.start_page..m.end_page);
        }
        assert_eq!(seen, (1..23).collect::<Vec<_>>(), "every page exactly once");
        assert!(d.next().is_none(), "stays exhausted");
    }

    #[test]
    fn dispenser_handles_empty_and_tiny_ranges() {
        let d = MorselDispenser::new(5, 5, 4);
        assert_eq!(d.morsel_count(), 0);
        assert!(d.next().is_none());
        let d = MorselDispenser::new(1, 2, 64);
        let m = d.next().unwrap();
        assert_eq!((m.start_page, m.end_page), (1, 2));
        assert!(d.next().is_none());
    }

    #[test]
    fn concurrent_workers_drain_without_overlap() {
        let d = MorselDispenser::new(1, 101, 3);
        let results = run_team(4, |_| {
            let mut pages = Vec::new();
            while let Some(m) = d.next() {
                pages.extend(m.start_page..m.end_page);
            }
            Ok(pages)
        });
        let mut all: Vec<u32> = results.into_iter().flat_map(|r| r.unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn run_team_preserves_worker_order_and_converts_panics() {
        let out = run_team(3, |i| {
            if i == 1 {
                panic!("boom");
            }
            Ok(i * 10)
        });
        assert_eq!(out.len(), 3);
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert!(matches!(out[1], Err(JaguarError::Execution(_))));
        assert_eq!(*out[2].as_ref().unwrap(), 20);
    }

    #[test]
    fn morsel_sizing_is_bounded_and_deterministic() {
        assert_eq!(morsel_pages_for(8, 4), 1, "small inputs: single pages");
        assert_eq!(morsel_pages_for(64, 4), 4);
        assert_eq!(morsel_pages_for(1 << 20, 2), 64, "capped at 64 pages");
        assert_eq!(morsel_pages_for(0, 1), 1, "floored at one page");
        assert_eq!(morsel_pages_for(100, 3), morsel_pages_for(100, 3));
    }

    #[test]
    fn metrics_resolve_and_tick() {
        let m = metrics();
        let before = m.queries.get();
        m.queries.inc();
        assert_eq!(metrics().queries.get(), before + 1);
    }
}
