//! pretend: crates/itemset/src/rogue_merge.rs
//!
//! Seeded violations for `counting-stats-merge-via-addassign`: a
//! hand-rolled field-wise merge drops newly added counters silently.
//! Increments and the sanctioned `AddAssign` body are fine. (No grep
//! ever enforced this — a pure false-negative in the old CI surface.)

pub struct CountingStats {
    pub db_scans: u64,
    pub cells_counted: u64,
}

fn rogue_merge(into: &mut CountingStats, from: &CountingStats) {
    // VIOLATION (x2): merging outside the AddAssign impl.
    into.db_scans += from.db_scans;
    into.cells_counted += from.cells_counted;
}

fn fine_increments(stats: &mut CountingStats, visited: u64) {
    stats.db_scans += 1;
    stats.cells_counted += visited;
}

impl std::ops::AddAssign<&CountingStats> for CountingStats {
    fn add_assign(&mut self, rhs: &CountingStats) {
        // The one sanctioned field-wise merge.
        self.db_scans += rhs.db_scans;
        self.cells_counted += rhs.cells_counted;
    }
}
