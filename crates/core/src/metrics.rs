//! Work accounting for the §3.3 cost analysis.
//!
//! The paper argues that the number of sets an algorithm *considers*
//! (builds a contingency table for) dominates its cost, since each table
//! historically meant a database scan. Every miner in this crate reports
//! a [`MiningMetrics`] so experiments can compare `|BMS+|`, `|BMS++|`,
//! `|BMS*|`, and `|BMS**|` directly, alongside wall-clock time.

use std::time::Duration;

use ccs_itemset::CountingStats;

/// Work performed by one mining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningMetrics {
    /// Candidate itemsets generated across all levels (before any per-set
    /// constraint check).
    pub candidates_generated: u64,
    /// Sets for which a contingency table was built — the paper's
    /// "number of sets considered", the dominating cost term.
    pub tables_built: u64,
    /// Candidate sets discarded by a residual anti-monotone constraint
    /// check *before* counting (the pre-table pruning of BMS++/BMS**).
    pub pruned_before_count: u64,
    /// Database scans performed by the counting layer.
    pub db_scans: u64,
    /// Transactions visited by the counting layer, across all scans.
    pub transactions_visited: u64,
    /// Contingency cells computed by the counting layer (`2^k` per
    /// `k`-itemset table).
    pub cells_counted: u64,
    /// Evaluations answered from the engine's verdict cache (no table
    /// was rebuilt).
    pub cache_hits: u64,
    /// Counting batches a vertical strategy answered below its preferred
    /// rung of the degradation ladder (vertical-parallel → vertical →
    /// horizontal) because the run's memory budget could not fit the
    /// scratch arena(s).
    pub degraded_batches: u64,
    /// Highest lattice level reached.
    pub max_level_reached: usize,
    /// Number of sets placed in SIG (answers, before/after filtering
    /// depending on algorithm).
    pub sig_size: u64,
    /// Number of sets placed in NOTSIG across the run.
    pub notsig_size: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl MiningMetrics {
    /// The counting-layer subset of these metrics, viewed as the
    /// [`CountingStats`] shape it was absorbed from.
    pub fn counting(&self) -> CountingStats {
        CountingStats {
            tables_built: self.tables_built,
            db_scans: self.db_scans,
            transactions_visited: self.transactions_visited,
            cells_counted: self.cells_counted,
            cache_hits: self.cache_hits,
            degraded_batches: self.degraded_batches,
        }
    }

    /// Folds the counting layer's statistics into the metrics. This is
    /// the only place a counting delta crosses into mining metrics.
    pub fn absorb_counting(&mut self, stats: CountingStats) {
        let mut counting = self.counting();
        counting += stats;
        self.tables_built = counting.tables_built;
        self.db_scans = counting.db_scans;
        self.transactions_visited = counting.transactions_visited;
        self.cells_counted = counting.cells_counted;
        self.cache_hits = counting.cache_hits;
        self.degraded_batches = counting.degraded_batches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_counting_accumulates() {
        let mut m = MiningMetrics::default();
        m.absorb_counting(CountingStats {
            tables_built: 3,
            db_scans: 3,
            transactions_visited: 30,
            cells_counted: 12,
            cache_hits: 1,
            degraded_batches: 1,
        });
        m.absorb_counting(CountingStats {
            tables_built: 2,
            db_scans: 2,
            transactions_visited: 20,
            cells_counted: 8,
            cache_hits: 0,
            degraded_batches: 0,
        });
        assert_eq!(m.tables_built, 5);
        assert_eq!(m.db_scans, 5);
        assert_eq!(m.transactions_visited, 50);
        assert_eq!(m.cells_counted, 20);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.degraded_batches, 1);
    }

    #[test]
    fn counting_view_round_trips_through_absorb() {
        let stats = CountingStats {
            tables_built: 3,
            db_scans: 1,
            transactions_visited: 30,
            cells_counted: 12,
            cache_hits: 2,
            degraded_batches: 1,
        };
        let mut m = MiningMetrics::default();
        m.absorb_counting(stats);
        assert_eq!(m.counting(), stats);
    }
}
