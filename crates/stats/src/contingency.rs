//! Contingency tables over itemsets, the chi-squared correlation test, and
//! the CT-support significance test.
//!
//! For a `k`-itemset `S = {s_0 < … < s_{k-1}}` the contingency table has
//! `2^k` cells, one per *minterm*: cell `c` counts the transactions that
//! contain exactly the items `{s_j | bit j of c = 1}` among `S`. Under the
//! independence hypothesis the expected count of a cell is
//! `n · Π_j p_j^{b_j} (1 − p_j)^{1−b_j}` where `p_j` is the marginal
//! frequency of `s_j`. The chi-squared statistic sums `(O−E)²/E` over all
//! cells, with `2^k − k − 1` degrees of freedom (1 for a pair, matching the
//! classical 2×2 test of Brin et al.).
//!
//! *CT-support* (contingency-table support) is the statistical-significance
//! filter of Brin et al.: at least a fraction `p` of the cells must have
//! count ≥ `s`. It is anti-monotone, while being correlated is monotone —
//! the two borders that shape the whole solution space of the paper.
//!
//! Every statistic is computed on a [`TableView`], which borrows a `k`-set's
//! cells where a counter left them; a [`ContingencyTable`] owns its set and
//! cells and lends them through the same view.

use ccs_itemset::{Itemset, MintermCounter};

use crate::chi2::{chi2_quantile, chi2_sf};

/// A borrowed `2^k`-cell contingency table: the cells of a `k`-set
/// where a counter left them, and their total `n`. Every statistic is
/// computed here, once; a [`ContingencyTable`] lends its cells through
/// [`ContingencyTable::view`], and the miners judge a counted row in
/// place through [`crate::MeasureContext::judge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableView<'a> {
    k: usize,
    counts: &'a [u64],
    n: u64,
}

impl<'a> TableView<'a> {
    /// Views `counts`, the `2^k` minterm cells of a `k`-set over `n`
    /// transactions (so the cells sum to `n`).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != 2^k`.
    #[inline]
    pub fn new(k: usize, counts: &'a [u64], n: u64) -> Self {
        assert_eq!(
            counts.len(),
            1usize << k,
            "a {k}-itemset needs 2^{k} cells, got {}",
            counts.len()
        );
        debug_assert_eq!(counts.iter().sum::<u64>(), n, "the cells sum to n");
        TableView { k, counts, n }
    }

    /// The number of items of the set.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Observed cell counts (length `2^k`, bit `j` of the index = item `j`
    /// present).
    pub fn counts(&self) -> &'a [u64] {
        self.counts
    }

    /// Total number of transactions.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Absolute marginal count of the `j`-th smallest item of the set:
    /// the number of transactions containing it.
    pub fn marginal_count(&self, j: usize) -> u64 {
        assert!(j < self.k, "marginal index {j} out of range");
        let mut present = 0u64;
        for (cell, &count) in self.counts.iter().enumerate() {
            if cell & (1 << j) != 0 {
                present += count;
            }
        }
        present
    }

    /// Marginal frequency of the `j`-th smallest item of the set: the
    /// fraction of transactions containing it.
    pub fn marginal(&self, j: usize) -> f64 {
        if self.n == 0 {
            assert!(j < self.k, "marginal index {j} out of range");
            return 0.0;
        }
        self.marginal_count(j) as f64 / self.n as f64
    }

    /// Expected count of cell `c` under full independence.
    pub fn expected(&self, cell: usize) -> f64 {
        let mut e = self.n as f64;
        for j in 0..self.k {
            let p = self.marginal(j);
            e *= if cell & (1 << j) != 0 { p } else { 1.0 - p };
        }
        e
    }

    /// The chi-squared statistic `Σ (O − E)² / E` over cells with `E > 0`.
    ///
    /// Cells whose expectation is exactly zero (an item with marginal 0
    /// or 1) contribute nothing: such an item carries no information about
    /// dependence, and the observed count in those cells is necessarily
    /// zero as well.
    pub fn chi_squared(&self) -> f64 {
        let k = self.k;
        if k < 2 || self.n == 0 {
            return 0.0;
        }
        // Precompute marginals once, on the stack: the view holds
        // `1 << k` cells, so `k` is below `usize::BITS`.
        let mut marginals = [0.0f64; usize::BITS as usize];
        let marginals = &mut marginals[..k];
        for (j, p) in marginals.iter_mut().enumerate() {
            *p = self.marginal(j);
        }
        let mut stat = 0.0;
        for (cell, &count) in self.counts.iter().enumerate() {
            let mut e = self.n as f64;
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

    /// The all-confidence of the set: the all-present cell count divided
    /// by the largest marginal count — equivalently, the smallest
    /// confidence of any rule `s_j ⇒ S ∖ {s_j}`.
    ///
    /// Anti-monotone (downward closed over sets of size ≥ 2): adding an
    /// item can only shrink the numerator and grow the denominator, and
    /// IEEE division is monotone in each argument, so the value never
    /// increases — exactly, not just approximately, in `f64`.
    ///
    /// `0.0` for empty sets and when no item occurs at all.
    pub fn all_confidence(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        let max_marginal = (0..self.k)
            .map(|j| self.marginal_count(j))
            .max()
            .unwrap_or(0);
        if max_marginal == 0 {
            return 0.0;
        }
        self.counts[self.counts.len() - 1] as f64 / max_marginal as f64
    }

    /// The bond of the set: the all-present cell count divided by the
    /// number of transactions containing *at least one* of the items —
    /// the Jaccard similarity of the items' transaction sets.
    ///
    /// Anti-monotone for the same reason as
    /// [`TableView::all_confidence`].
    ///
    /// `0.0` for empty sets and when no item occurs at all.
    pub fn bond(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        let union = self.n - self.counts[0];
        if union == 0 {
            return 0.0;
        }
        self.counts[self.counts.len() - 1] as f64 / union as f64
    }

    /// The number of cells whose observed count is at least `s`.
    fn cells_meeting(&self, s: u64) -> usize {
        self.counts.iter().filter(|&&c| c >= s).count()
    }

    /// Fraction of cells whose observed count is at least `s`.
    pub fn ct_support_fraction(&self, s: u64) -> f64 {
        self.cells_meeting(s) as f64 / self.counts.len() as f64
    }

    /// The CT-support test: at least a fraction `p` of cells must have
    /// count ≥ `s`. Anti-monotone (downward closed).
    ///
    /// The comparison tolerates floating-point representation of `p`
    /// (e.g. `p = 0.25` with 4 cells requires exactly 1 cell).
    pub fn is_ct_supported(&self, s: u64, p: f64) -> bool {
        self.cells_meeting(s) as f64 + 1e-9 >= p * self.counts.len() as f64
    }
}

/// A `2^k`-cell contingency table for a `k`-itemset: the set and its
/// cells, owned. Its statistics are those of its [`TableView`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    set: Itemset,
    counts: Vec<u64>,
    n: u64,
}

impl ContingencyTable {
    /// Builds the table for `set` using the given counting strategy.
    pub fn build<C: MintermCounter + ?Sized>(counter: &mut C, set: &Itemset) -> Self {
        let counts = counter.minterm_counts(set);
        Self::from_counts(set.clone(), counts)
    }

    /// Wraps precomputed minterm counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != 2^set.len()`.
    pub fn from_counts(set: Itemset, counts: Vec<u64>) -> Self {
        assert_eq!(
            counts.len(),
            1usize << set.len(),
            "a {}-itemset needs 2^{} cells, got {}",
            set.len(),
            set.len(),
            counts.len()
        );
        let n = counts.iter().sum();
        ContingencyTable { set, counts, n }
    }

    /// The borrowed view every statistic is computed on.
    #[inline]
    pub fn view(&self) -> TableView<'_> {
        TableView {
            k: self.set.len(),
            counts: &self.counts,
            n: self.n,
        }
    }

    /// The itemset this table describes.
    pub fn itemset(&self) -> &Itemset {
        &self.set
    }

    /// Observed cell counts (length `2^k`, bit `j` of the index = item `j`
    /// present).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of transactions.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// See [`TableView::marginal`].
    pub fn marginal(&self, j: usize) -> f64 {
        self.view().marginal(j)
    }

    /// See [`TableView::marginal_count`].
    pub fn marginal_count(&self, j: usize) -> u64 {
        self.view().marginal_count(j)
    }

    /// See [`TableView::expected`].
    pub fn expected(&self, cell: usize) -> f64 {
        self.view().expected(cell)
    }

    /// See [`TableView::chi_squared`].
    pub fn chi_squared(&self) -> f64 {
        self.view().chi_squared()
    }

    /// Degrees of freedom of the independence test: `2^k − k − 1`
    /// (= 1 for a 2-itemset, matching the classical 2×2 table).
    ///
    /// Degenerate for `k < 2`, where no correlation question exists.
    pub fn degrees_of_freedom(&self) -> u32 {
        let k = self.set.len() as u32;
        if k < 2 {
            0
        } else {
            (1u32 << k) - k - 1
        }
    }

    /// The p-value of the observed statistic: the probability of seeing a
    /// statistic at least this large if the items were independent.
    ///
    /// Returns `1.0` for degenerate tables (`k < 2`), which can never be
    /// correlated.
    pub fn p_value(&self) -> f64 {
        let df = self.degrees_of_freedom();
        if df == 0 {
            return 1.0;
        }
        chi2_sf(self.chi_squared(), df)
    }

    /// The correlation test at `confidence` (e.g. `0.9` in the paper's
    /// experiments): `true` iff the statistic exceeds the df = 1
    /// chi-squared quantile at that confidence.
    ///
    /// The comparison uses **one** degree of freedom at every table size,
    /// following Brin et al. and §2.1 of the paper ("a degree of freedom,
    /// which is always 1 for boolean variables"). The chi-squared
    /// statistic never decreases when an item is added, so against this
    /// *fixed* cutoff being correlated is a *monotone* (upward-closed)
    /// property — the closure every miner in this workspace exploits. A
    /// statistically orthodox test of the full-independence model would
    /// use [`ContingencyTable::degrees_of_freedom`] (see
    /// [`ContingencyTable::p_value`]) but is not upward closed.
    ///
    /// Degenerate tables (`k < 2`) are never correlated.
    pub fn is_correlated(&self, confidence: f64) -> bool {
        if self.set.len() < 2 {
            return false;
        }
        self.chi_squared() >= chi2_quantile(confidence, 1)
    }

    /// See [`TableView::all_confidence`].
    pub fn all_confidence(&self) -> f64 {
        self.view().all_confidence()
    }

    /// See [`TableView::bond`].
    pub fn bond(&self) -> f64 {
        self.view().bond()
    }

    /// See [`TableView::ct_support_fraction`].
    pub fn ct_support_fraction(&self, s: u64) -> f64 {
        self.view().ct_support_fraction(s)
    }

    /// See [`TableView::is_ct_supported`].
    pub fn is_ct_supported(&self, s: u64, p: f64) -> bool {
        self.view().is_ct_supported(s, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_itemset::{HorizontalCounter, TransactionDb};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    /// Figure B of the paper (adapted from Brin et al.): coffee ×
    /// doughnuts over 100 baskets.
    fn coffee_doughnuts() -> ContingencyTable {
        // bit 0 = coffee present, bit 1 = doughnuts present.
        // O(coffee, doughnuts) = 30, O(¬coffee, doughnuts) = 20,
        // O(coffee, ¬doughnuts) = 39, O(¬coffee, ¬doughnuts) = 11.
        ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![11, 39, 20, 30])
    }

    #[test]
    fn figure_b_marginals() {
        let t = coffee_doughnuts();
        assert_eq!(t.n(), 100);
        close(t.marginal(0), 0.69, 1e-12); // coffee row sum 69
        close(t.marginal(1), 0.50, 1e-12); // doughnuts column sum 50
    }

    #[test]
    fn figure_b_expected_counts() {
        let t = coffee_doughnuts();
        close(t.expected(0b11), 34.5, 1e-9);
        close(t.expected(0b01), 34.5, 1e-9);
        close(t.expected(0b10), 15.5, 1e-9);
        close(t.expected(0b00), 15.5, 1e-9);
    }

    #[test]
    fn figure_b_chi_squared_statistic() {
        let t = coffee_doughnuts();
        // 2·(4.5²/34.5) + 2·(4.5²/15.5) = 3.7868…
        close(t.chi_squared(), 3.786_816, 1e-5);
        assert_eq!(t.degrees_of_freedom(), 1);
        // Significant at 90% (2.706) but not at 95% (3.841).
        assert!(t.is_correlated(0.90));
        assert!(!t.is_correlated(0.95));
        let p = t.p_value();
        assert!(p > 0.05 && p < 0.10, "p-value = {p}");
    }

    #[test]
    fn independent_items_are_not_correlated() {
        // Perfectly independent 2×2: marginals 0.5/0.5, all cells 25.
        let t = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![25, 25, 25, 25]);
        close(t.chi_squared(), 0.0, 1e-12);
        assert!(!t.is_correlated(0.9));
        close(t.p_value(), 1.0, 1e-12);
    }

    #[test]
    fn perfectly_dependent_items_have_large_statistic() {
        // Items always co-occur: cells {both, neither} only.
        let t = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![50, 0, 0, 50]);
        close(t.chi_squared(), 100.0, 1e-9); // n·φ² with φ = 1
        assert!(t.is_correlated(0.99));
        assert!(t.p_value() < 1e-20);
    }

    #[test]
    fn degenerate_marginal_contributes_nothing() {
        // Item 1 present in every transaction: its cells with "absent" have
        // E = 0 and O = 0; statistic must be finite and zero.
        let t = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![0, 0, 50, 50]);
        close(t.chi_squared(), 0.0, 1e-12);
        assert!(!t.is_correlated(0.9));
    }

    #[test]
    fn singleton_and_empty_tables_are_degenerate() {
        let t1 = ContingencyTable::from_counts(Itemset::from_ids([3]), vec![40, 60]);
        assert_eq!(t1.degrees_of_freedom(), 0);
        assert!(!t1.is_correlated(0.9));
        close(t1.p_value(), 1.0, 0.0);
        let t0 = ContingencyTable::from_counts(Itemset::empty(), vec![100]);
        assert_eq!(t0.degrees_of_freedom(), 0);
        close(t0.chi_squared(), 0.0, 0.0);
    }

    #[test]
    fn three_way_degrees_of_freedom() {
        let t = ContingencyTable::from_counts(
            Itemset::from_ids([0, 1, 2]),
            vec![10, 10, 10, 10, 10, 10, 10, 10],
        );
        assert_eq!(t.degrees_of_freedom(), 4); // 2^3 - 3 - 1
        close(t.chi_squared(), 0.0, 1e-9); // uniform ⇒ independent
    }

    #[test]
    fn figure_b_ratio_measures() {
        let t = coffee_doughnuts();
        // both = 30, coffee marginal = 69, doughnuts marginal = 50,
        // union = 100 − 11 = 89.
        close(t.all_confidence(), 30.0 / 69.0, 1e-12);
        close(t.bond(), 30.0 / 89.0, 1e-12);
    }

    #[test]
    fn ratio_measures_on_degenerate_tables() {
        let empty = ContingencyTable::from_counts(Itemset::empty(), vec![100]);
        close(empty.all_confidence(), 0.0, 0.0);
        close(empty.bond(), 0.0, 0.0);
        // No item ever occurs: both denominators are empty.
        let absent = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![50, 0, 0, 0]);
        close(absent.all_confidence(), 0.0, 0.0);
        close(absent.bond(), 0.0, 0.0);
        // A singleton is its own union and marginal.
        let single = ContingencyTable::from_counts(Itemset::from_ids([3]), vec![40, 60]);
        close(single.all_confidence(), 1.0, 0.0);
        close(single.bond(), 1.0, 0.0);
    }

    #[test]
    fn perfect_co_occurrence_maximizes_ratio_measures() {
        let t = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![50, 0, 0, 50]);
        close(t.all_confidence(), 1.0, 0.0);
        close(t.bond(), 1.0, 0.0);
    }

    #[test]
    fn ct_support_counts_cells() {
        let t = coffee_doughnuts();
        // Cells: 11, 39, 20, 30. With s = 20: 3 of 4 cells qualify.
        close(t.ct_support_fraction(20), 0.75, 1e-12);
        assert!(t.is_ct_supported(20, 0.75));
        assert!(t.is_ct_supported(20, 0.5));
        assert!(!t.is_ct_supported(20, 0.76));
        assert!(t.is_ct_supported(40, 0.0));
        assert!(!t.is_ct_supported(40, 0.25));
    }

    #[test]
    fn ct_support_tolerates_float_fraction() {
        // 4 cells, p = 0.25 ⇒ exactly one qualifying cell suffices.
        let t = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![100, 0, 0, 0]);
        assert!(t.is_ct_supported(100, 0.25));
    }

    #[test]
    fn build_from_counter_matches_from_counts() {
        let db = TransactionDb::from_ids(2, vec![vec![0, 1], vec![0], vec![1], vec![], vec![0, 1]]);
        let mut counter = HorizontalCounter::new(&db);
        let t = ContingencyTable::build(&mut counter, &Itemset::from_ids([0, 1]));
        assert_eq!(t.counts(), &[1, 1, 1, 2]);
        assert_eq!(t.n(), 5);
    }

    #[test]
    fn chi_squared_invariance_under_item_relabeling() {
        // Swapping bit roles permutes cells but not the statistic.
        let a = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![11, 39, 20, 30]);
        let b = ContingencyTable::from_counts(Itemset::from_ids([0, 1]), vec![11, 20, 39, 30]);
        close(a.chi_squared(), b.chi_squared(), 1e-9);
    }

    /// The reference `chi_squared` must match bit for bit: marginals
    /// collected in a `Vec`, then `Σ (O − E)² / E` over cells with
    /// `E > 0`, in the same order.
    fn chi_squared_reference(t: &ContingencyTable) -> f64 {
        let k = t.itemset().len();
        if k < 2 || t.n() == 0 {
            return 0.0;
        }
        let marginals: Vec<f64> = (0..k).map(|j| t.marginal(j)).collect();
        let mut stat = 0.0;
        for (cell, &count) in t.counts().iter().enumerate() {
            let mut e = t.n() as f64;
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

    #[test]
    fn chi_squared_is_bit_identical_to_the_reference_formula() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for k in 2..=8u32 {
            for round in 0..50 {
                let set = Itemset::from_ids(0..k);
                // Every fifth table is sparse, so zero marginals and
                // zero expectations occur too.
                let counts: Vec<u64> = (0..1usize << k)
                    .map(|_| match round % 5 {
                        0 if rng.gen_bool(0.8) => 0,
                        _ => rng.gen_range(0..1000u64),
                    })
                    .collect();
                let t = ContingencyTable::from_counts(set, counts);
                assert_eq!(
                    t.chi_squared().to_bits(),
                    chi_squared_reference(&t).to_bits(),
                    "k = {k}, round {round}"
                );
            }
        }
    }
}
