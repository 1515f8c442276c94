//! pretend: crates/core/src/rogue_verdict.rs
//!
//! Seeded violations for `measure-verdict-confined`: raw χ² spellings
//! called outside the stats crate judge with the wrong measure whenever
//! the query asks for all-confidence or bond, and raw CT-support
//! spellings judge a table apart from the row judge. Production code
//! must go through `MeasureContext`; test code recomputes both tests on
//! purpose and is exempt.

use ccs_stats::{chi2_quantile, ContingencyTable, MeasureContext, TableView, Verdict};

fn rogue_statistic(table: &ContingencyTable) -> f64 {
    // VIOLATION: the raw statistic ignores the run's measure.
    table.chi_squared()
}

fn rogue_verdict(table: &ContingencyTable) -> bool {
    // VIOLATION: pins the χ² test regardless of `params.measure`.
    table.is_correlated(0.9)
}

fn rogue_cutoff() -> f64 {
    // VIOLATION: quantiles are precomputed once, in `MeasureContext`.
    chi2_quantile(0.95, 2)
}

fn rogue_support(table: &ContingencyTable, s: u64, p: f64) -> bool {
    // VIOLATION: CT-support is tested by the row judge, first.
    table.is_ct_supported(s, p)
}

fn rogue_fraction(row: TableView<'_>, s: u64) -> f64 {
    // VIOLATION: the raw cell fraction, outside the measure layer.
    row.ct_support_fraction(s)
}

// Fine: the measure-aware spellings every production call site must use.
fn sanctioned(ctx: &MeasureContext, table: &ContingencyTable) -> bool {
    ctx.verdict(table)
}

fn sanctioned_row(ctx: &MeasureContext, row: TableView<'_>, s: u64, p: f64) -> Verdict {
    ctx.judge(row, s, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_recomputation_is_fine() {
        let t = table();
        assert!(t.chi_squared() >= 0.0);
        assert!(t.is_correlated(0.9) || !t.is_correlated(0.99));
        assert!(t.is_ct_supported(0, 1.0) && t.ct_support_fraction(0) == 1.0);
    }
}
