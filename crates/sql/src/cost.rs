//! Per-UDF cost model and online selectivity estimates for
//! expensive-predicate reordering.
//!
//! The rank of a conjunctive predicate is the classic
//! `cost / (1 − selectivity)` (Hellerstein's predicate migration rank,
//! inverted so *ascending* rank is the evaluation order): a predicate
//! is worth running early when it is cheap and filters a lot.
//!
//! Costs are seeded from the per-`(udf, backend)` latency histograms —
//! `udf.latency_us.{slug}.{name}` — recorded by the executor on every
//! real invocation, with the design's cold-start cost as the fallback
//! (`jaguar_udf::Design::cold_start_us`: native < in-process VM <
//! isolated). Selectivities are observed per predicate fingerprint by
//! the serial Filter operator and folded into the engine's [`OptState`]
//! when a statement finishes; until `MIN_SEL_SAMPLES` rows have been
//! seen the estimate stays at the textbook default of 0.5.

use std::collections::HashMap;
use std::sync::Arc;

use jaguar_common::obs;
use parking_lot::RwLock;

use crate::memo::MemoCache;

/// Selectivity observations below this many evaluated rows are ignored.
pub const MIN_SEL_SAMPLES: u64 = 64;

/// Default selectivity when nothing has been observed yet.
pub const DEFAULT_SELECTIVITY: f64 = 0.5;

/// Mean observed latency (µs) of one UDF on one backend, from the
/// process-wide `udf.latency_us.{slug}.{name}` histogram. `None` until
/// at least one real invocation has been recorded.
pub fn observed_cost_us(udf_name: &str, slug: &str) -> Option<f64> {
    let h = obs::global().histogram(&format!("udf.latency_us.{slug}.{udf_name}"));
    let snap = h.snapshot();
    if snap.count == 0 {
        return None;
    }
    // Sub-µs natives round to 0 mean; floor at the first bucket so a
    // measured cost never ranks below the free-predicate baseline.
    Some((snap.sum_us as f64 / snap.count as f64).max(1.0))
}

/// The reorder rank: ascending = evaluation order. `sel` is the
/// fraction of rows that *pass* the predicate; an epsilon keeps
/// always-true predicates finite (they sort last, as they should).
pub fn rank(cost_us: f64, sel: f64) -> f64 {
    cost_us / (1.0 - sel.clamp(0.0, 1.0) + 1e-6)
}

/// Pass/evaluate counts for one predicate fingerprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelectivityStats {
    pub evaluated: u64,
    pub passed: u64,
}

impl SelectivityStats {
    /// Observed pass fraction, once enough samples exist.
    pub fn estimate(&self) -> Option<f64> {
        if self.evaluated < MIN_SEL_SAMPLES {
            return None;
        }
        Some(self.passed as f64 / self.evaluated as f64)
    }
}

/// Engine-scoped optimizer state: the memo cache plus the selectivity
/// observations. Engine-scoped (not process-global) so concurrently
/// running engines — and tests — cannot contaminate each other's plans.
pub struct OptState {
    memo: Option<Arc<MemoCache>>,
    selectivity: RwLock<HashMap<String, SelectivityStats>>,
}

impl OptState {
    /// `memo_budget` is `Config::udf_memo_bytes`; zero disables the cache.
    pub fn new(memo_budget: usize) -> OptState {
        OptState {
            memo: (memo_budget > 0).then(|| Arc::new(MemoCache::new(memo_budget))),
            selectivity: RwLock::new(HashMap::new()),
        }
    }

    /// The shared memo cache, if enabled.
    pub fn memo(&self) -> Option<&Arc<MemoCache>> {
        self.memo.as_ref()
    }

    /// Fold one statement's observations for a predicate fingerprint.
    pub fn record_selectivity(&self, fingerprint: &str, evaluated: u64, passed: u64) {
        if evaluated == 0 {
            return;
        }
        let mut map = self.selectivity.write();
        let s = map.entry(fingerprint.to_string()).or_default();
        s.evaluated += evaluated;
        s.passed += passed;
    }

    /// Observed selectivity for a fingerprint, or the 0.5 default.
    pub fn selectivity(&self, fingerprint: &str) -> f64 {
        self.selectivity
            .read()
            .get(fingerprint)
            .and_then(|s| s.estimate())
            .unwrap_or(DEFAULT_SELECTIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_cheap_selective_first() {
        // Cheap and selective beats expensive and selective…
        assert!(rank(1.0, 0.1) < rank(100.0, 0.1));
        // …and selectivity breaks ties between equal costs.
        assert!(rank(50.0, 0.1) < rank(50.0, 0.9));
        // Always-true predicates stay finite and sort last.
        assert!(rank(1.0, 1.0) > rank(1.0, 0.999));
        assert!(rank(1.0, 1.0).is_finite());
    }

    #[test]
    fn static_costs_follow_the_paper_ordering() {
        use jaguar_udf::{Design, Placement};
        let cost = |bytecode, placement| {
            Design {
                bytecode,
                placement,
            }
            .cold_start_us()
        };
        let (server, worker) = (Placement::Server, Placement::Worker);
        assert!(cost(false, server) < cost(true, server));
        assert!(cost(true, server) < cost(false, worker));
        assert!(cost(false, worker) < cost(true, worker));
        // A UDF that has never run ranks by its design's cold-start cost.
        assert_eq!(observed_cost_us("opt_cost_never_ran", "ijsm"), None);
    }

    #[test]
    fn selectivity_needs_samples_then_tracks() {
        let s = OptState::new(0);
        assert_eq!(s.selectivity("p"), DEFAULT_SELECTIVITY);
        s.record_selectivity("p", 10, 1);
        assert_eq!(
            s.selectivity("p"),
            DEFAULT_SELECTIVITY,
            "below MIN_SEL_SAMPLES"
        );
        s.record_selectivity("p", 90, 9);
        assert!((s.selectivity("p") - 0.1).abs() < 1e-9);
        assert!(s.memo().is_none(), "budget 0 disables the cache");
        assert!(OptState::new(1024).memo().is_some());
    }

    #[test]
    fn observed_cost_reads_the_per_udf_histogram() {
        assert_eq!(observed_cost_us("opt_cost_test_udf", "jsm"), None);
        obs::global()
            .histogram("udf.latency_us.jsm.opt_cost_test_udf")
            .observe_us(120);
        let c = observed_cost_us("opt_cost_test_udf", "jsm").unwrap();
        assert!((c - 120.0).abs() < 1e-9, "{c}");
    }
}
