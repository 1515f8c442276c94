//! The row judge, property-tested: `MeasureContext::judge` on a borrowed
//! `TableView` of a counted row agrees with the owned-table path,
//! `ContingencyTable::is_ct_supported` and then `MeasureContext::verdict`,
//! under every measure, and the χ² statistic of the row is bit-identical
//! to the table's and to a from-scratch recomputation.

#![allow(clippy::unwrap_used)]

use ccs_itemset::Itemset;
use ccs_stats::{ContingencyTable, Measure, MeasureContext, TableView, Verdict};
use proptest::prelude::*;

/// `2^k` cells for `k` in 2..=6, in one of four shapes: random counts;
/// all zero (`n = 0`); zero-marginal (no basket holds item `j`); and
/// every count in one cell (each item absent or present in every basket).
fn cells_strategy() -> impl Strategy<Value = (usize, Vec<u64>)> {
    (
        2usize..=6,
        0u8..4,
        any::<u64>(),
        proptest::collection::vec(0u64..60, 64),
    )
        .prop_map(|(k, shape, pick, mut cells)| {
            cells.truncate(1 << k);
            match shape {
                1 => cells.iter_mut().for_each(|c| *c = 0),
                2 => {
                    let j = pick as usize % k;
                    for (cell, c) in cells.iter_mut().enumerate() {
                        if cell & (1 << j) != 0 {
                            *c = 0;
                        }
                    }
                }
                3 => {
                    let n: u64 = cells.iter().sum();
                    cells.iter_mut().for_each(|c| *c = 0);
                    let len = cells.len();
                    cells[pick as usize % len] = n;
                }
                _ => {}
            }
            (k, cells)
        })
}

/// The cell support over `n` transactions, picked by `mode` and `draw`:
/// zero, one, anything up to `n + 1`, or above half the transactions.
fn support(n: u64, mode: u8, draw: u64) -> u64 {
    match mode {
        0 => 0,
        1 => 1,
        2 => draw % (n + 2),
        3 => n / 2 + 1,
        _ => n / 2 + 1 + draw % (n / 2 + 2),
    }
}

/// The cell fraction: near 0, near 1, or anywhere in `[0, 1]`.
fn fraction_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-12),
        Just(0.01),
        Just(0.99),
        Just(1.0 - 1e-12),
        Just(1.0),
        0.0..=1.0f64,
    ]
}

/// A context of every measure at a valid threshold.
fn context_strategy() -> impl Strategy<Value = MeasureContext> {
    prop_oneof![
        (0.0..0.999f64).prop_map(|c| MeasureContext::new(Measure::Chi2, c).unwrap()),
        (1e-6..=1.0f64).prop_map(|t| MeasureContext::new(Measure::AllConfidence, t).unwrap()),
        (1e-6..=1.0f64).prop_map(|t| MeasureContext::new(Measure::Bond, t).unwrap()),
    ]
}

/// `Σ (O − E)² / E` over cells with `E > 0`, from marginals collected in
/// a `Vec`, in cell order: the spelling the view must match bit for bit.
fn chi_squared_from_cells(k: usize, cells: &[u64], n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let marginals: Vec<f64> = (0..k)
        .map(|j| {
            let present: u64 = cells
                .iter()
                .enumerate()
                .filter(|(cell, _)| cell & (1 << j) != 0)
                .map(|(_, &c)| c)
                .sum();
            present as f64 / n as f64
        })
        .collect();
    let mut stat = 0.0;
    for (cell, &count) in cells.iter().enumerate() {
        let mut e = n as f64;
        for (j, &p) in marginals.iter().enumerate() {
            e *= if cell & (1 << j) != 0 { p } else { 1.0 - p };
        }
        if e > 0.0 {
            let diff = count as f64 - e;
            stat += diff * diff / e;
        }
    }
    stat
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn row_judge_agrees_with_the_owned_table(
        (k, cells) in cells_strategy(),
        (mode, draw) in (0u8..5, any::<u64>()),
        p in fraction_strategy(),
        ctx in context_strategy(),
    ) {
        let n: u64 = cells.iter().sum();
        let s = support(n, mode, draw);
        let table = ContingencyTable::from_counts(Itemset::from_ids(0..k as u32), cells.clone());
        let row = TableView::new(k, &cells, n);
        let want = if table.is_ct_supported(s, p) {
            Verdict::Supported { correlated: ctx.verdict(&table) }
        } else {
            Verdict::Unsupported
        };
        prop_assert_eq!(ctx.judge(row, s, p), want);
        prop_assert_eq!(row.is_ct_supported(s, p), table.is_ct_supported(s, p));
        prop_assert_eq!(
            row.ct_support_fraction(s).to_bits(),
            table.ct_support_fraction(s).to_bits()
        );
        prop_assert_eq!(ctx.correlated(row), ctx.verdict(&table));
        prop_assert_eq!(
            ctx.measure().statistic(row).to_bits(),
            ctx.statistic(&table).to_bits()
        );
        prop_assert_eq!(row.chi_squared().to_bits(), table.chi_squared().to_bits());
        prop_assert_eq!(
            row.chi_squared().to_bits(),
            chi_squared_from_cells(k, &cells, n).to_bits()
        );
    }
}

#[test]
fn edge_rows_judge_as_pinned() {
    let chi2 = MeasureContext::new(Measure::Chi2, 0.9).unwrap();
    let bond = MeasureContext::new(Measure::Bond, 0.5).unwrap();
    // n = 0: no cell reaches s = 1, and at s = 0 every cell does, but
    // no measure calls the empty table correlated.
    let empty = [0u64; 4];
    let row = TableView::new(2, &empty, 0);
    assert_eq!(chi2.judge(row, 1, 0.25), Verdict::Unsupported);
    assert_eq!(
        chi2.judge(row, 0, 1.0),
        Verdict::Supported { correlated: false }
    );
    assert_eq!(
        bond.judge(row, 0, 1.0),
        Verdict::Supported { correlated: false }
    );
    // A pair in every basket: one cell holds all n. It reaches s > n/2
    // at p = 1/4 but not at p near 1; χ² reads 0 and bond 1.
    let every = [0u64, 0, 0, 10];
    let row = TableView::new(2, &every, 10);
    assert_eq!(
        chi2.judge(row, 6, 0.25),
        Verdict::Supported { correlated: false }
    );
    assert_eq!(
        bond.judge(row, 6, 0.25),
        Verdict::Supported { correlated: true }
    );
    assert_eq!(bond.judge(row, 6, 1.0 - 1e-12), Verdict::Unsupported);
}
