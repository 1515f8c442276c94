//! Pluggable correlation measures behind one verdict interface.
//!
//! The paper's engine tests exactly one hypothesis — χ² significance
//! over the 2^k contingency table — but the correlated-pattern lineage
//! it spawned runs on other measures. This module concentrates the
//! measure choice in one place:
//!
//! * [`Measure`] — a closed dispatch enum (χ², all-confidence, bond);
//!   verdicts stay `Copy`-cheap on the hot path, no trait objects,
//! * [`MonotonicityClass`] — which way each measure's "correlated"
//!   predicate is closed in the itemset lattice, which is what the
//!   miners' pruning correctness rests on (Lemma 1 for χ²),
//! * [`MeasureContext`] — the validated, precomputed per-run criterion
//!   (generalizing the cached χ² critical value), the *only* place
//!   thresholds are range-checked.
//!
//! | Measure | Statistic | Closure |
//! |---------|-----------|---------|
//! | `chi2` | `Σ (O−E)²/E` vs the df = 1 quantile | upward (supersets stay correlated) |
//! | `all-confidence` | `O(all) / max_j O(s_j)` | downward (subsets stay correlated) |
//! | `bond` | `O(all) / O(union)` | downward (subsets stay correlated) |
//!
//! Both ratio measures are *exactly* anti-monotone in `f64`: extending a
//! set can only shrink the numerator and grow the denominator, and IEEE
//! division is correctly rounded and monotone in each argument, so the
//! statistic never increases and a verdict never flips `false → true`.
//!
//! Edge tables split the measures. On an empty database (`n = 0`) every
//! statistic reads 0, so no measure calls a set correlated. A pair
//! present in every basket puts all `n` baskets in the all-present cell.
//! χ² skips the three cells whose expected count is 0, and the last cell
//! matches its expectation, so it reads 0 and the pair is not correlated
//! at any confidence above 0. All-confidence and bond both read 1.0, so
//! the same pair is correlated at every valid threshold.

use std::fmt;
use std::str::FromStr;

use crate::chi2::chi2_quantile;
use crate::contingency::{ContingencyTable, TableView};

/// Which direction a measure's "correlated" predicate is closed in the
/// itemset lattice (restricted to sets of size ≥ 2, below which no
/// correlation question exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonotonicityClass {
    /// Supersets of correlated sets stay correlated — the paper's χ²
    /// Lemma 1, which BMS-family pruning exploits by extending only the
    /// *not yet* correlated frontier.
    UpwardClosed,
    /// Subsets (of size ≥ 2) of correlated sets stay correlated —
    /// all-confidence and bond. Sets that *fail* the measure are dead:
    /// no superset can recover, so miners extend only passing sets.
    DownwardClosed,
}

impl MonotonicityClass {
    /// `true` for [`MonotonicityClass::UpwardClosed`].
    pub fn is_upward(self) -> bool {
        matches!(self, MonotonicityClass::UpwardClosed)
    }

    /// `true` for [`MonotonicityClass::DownwardClosed`].
    pub fn is_downward(self) -> bool {
        matches!(self, MonotonicityClass::DownwardClosed)
    }

    /// Human-readable classification, as printed by `mine --explain`.
    pub fn describe(self) -> &'static str {
        match self {
            MonotonicityClass::UpwardClosed => "upward-closed (supersets stay correlated)",
            MonotonicityClass::DownwardClosed => {
                "downward-closed / anti-monotone (subsets stay correlated)"
            }
        }
    }
}

/// The correlation measure a mining run tests. Closed set: adding a
/// measure means adding a variant here, which forces every dispatch
/// site to handle it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Measure {
    /// The paper's χ² significance test against the fixed df = 1
    /// quantile (Brin et al.; §2.1). Threshold is the confidence level
    /// in `[0, 1)`.
    #[default]
    Chi2,
    /// `all-confidence(S) = O(all items) / max_j O(s_j)` — the smallest
    /// confidence of any rule `s_j ⇒ S∖{s_j}`. Threshold in `(0, 1]`.
    AllConfidence,
    /// `bond(S) = O(all items) / O(at least one item)` — the Jaccard
    /// similarity of the items' transaction sets. Threshold in `(0, 1]`.
    Bond,
}

impl Measure {
    /// Every supported measure, in CLI-listing order.
    pub const ALL: [Measure; 3] = [Measure::Chi2, Measure::AllConfidence, Measure::Bond];

    /// The CLI spelling (`chi2` / `all-confidence` / `bond`).
    pub fn name(self) -> &'static str {
        match self {
            Measure::Chi2 => "chi2",
            Measure::AllConfidence => "all-confidence",
            Measure::Bond => "bond",
        }
    }

    /// The closure direction of this measure's correlation predicate.
    pub fn monotonicity(self) -> MonotonicityClass {
        match self {
            Measure::Chi2 => MonotonicityClass::UpwardClosed,
            Measure::AllConfidence | Measure::Bond => MonotonicityClass::DownwardClosed,
        }
    }

    /// The raw statistic of this measure on a contingency table.
    pub fn statistic(self, table: TableView<'_>) -> f64 {
        match self {
            Measure::Chi2 => table.chi_squared(),
            Measure::AllConfidence => table.all_confidence(),
            Measure::Bond => table.bond(),
        }
    }

    /// The valid threshold range, for error messages.
    pub fn threshold_range(self) -> &'static str {
        match self {
            Measure::Chi2 => "[0, 1)",
            Measure::AllConfidence | Measure::Bond => "(0, 1]",
        }
    }

    /// Whether `threshold` is in this measure's valid range: χ² takes a
    /// confidence level in `[0, 1)` (the quantile is undefined at 1);
    /// the ratio measures take a cutoff in `(0, 1]` (at 0 every pair of
    /// co-occurring items would pass vacuously).
    pub fn valid_threshold(self, threshold: f64) -> bool {
        match self {
            Measure::Chi2 => (0.0..1.0).contains(&threshold),
            Measure::AllConfidence | Measure::Bond => threshold > 0.0 && threshold <= 1.0,
        }
    }

    /// A sensible default threshold: the paper's 0.9 confidence for χ²,
    /// the literature's customary 0.5 for all-confidence, and 0.1 for
    /// bond (whose values shrink with set size much faster).
    pub fn default_threshold(self) -> f64 {
        match self {
            Measure::Chi2 => 0.9,
            Measure::AllConfidence => 0.5,
            Measure::Bond => 0.1,
        }
    }

    /// A stable one-byte tag for the checkpoint format (persist.rs is
    /// the only intended consumer). Tags are append-only.
    pub fn tag(self) -> u8 {
        match self {
            Measure::Chi2 => 0,
            Measure::AllConfidence => 1,
            Measure::Bond => 2,
        }
    }

    /// Inverse of [`Measure::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Measure::Chi2),
            1 => Some(Measure::AllConfidence),
            2 => Some(Measure::Bond),
            _ => None,
        }
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Measure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chi2" => Ok(Measure::Chi2),
            "all-confidence" => Ok(Measure::AllConfidence),
            "bond" => Ok(Measure::Bond),
            other => Err(format!(
                "unknown measure '{other}' (expected chi2, all-confidence, or bond)"
            )),
        }
    }
}

/// An out-of-range measure threshold, rejected at
/// [`MeasureContext::new`] — the single validation point every layer
/// (params, CLI, checkpoint decode, causality) goes through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureError {
    /// The measure whose threshold was rejected.
    pub measure: Measure,
    /// The rejected value.
    pub threshold: f64,
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threshold must be in {}, got {}",
            self.measure,
            self.measure.threshold_range(),
            self.threshold
        )
    }
}

impl std::error::Error for MeasureError {}

/// What a counted row earns. CT-support is tested first, on the raw
/// cells, and the measure runs only on a supported row: no miner reads
/// the correlation of a set that is not CT-supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fewer than a fraction `p` of the cells reach the support `s`.
    Unsupported,
    /// CT-supported, with the run's measure verdict.
    Supported {
        /// Whether the run's measure calls the set correlated.
        correlated: bool,
    },
}

/// The conditional-independence test of the causality screen stays
/// χ²-based under every measure; when the run's own threshold is not a
/// confidence level (the ratio measures), the df = 2 cutoff falls back
/// to this standard confidence.
const CI_FALLBACK_CONFIDENCE: f64 = 0.95;

/// The validated, precomputed per-run criterion of one measure: what
/// the old cached χ² critical value generalizes to.
///
/// Construction is the *only* place thresholds are range-checked (and
/// the only place `chi2_quantile` runs), so every downstream verdict —
/// including the df = 2 conditional-independence cutoff that
/// `causality` used to compute unvalidated at its call site — is
/// guaranteed panic-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureContext {
    measure: Measure,
    threshold: f64,
    /// The value the per-set statistic is compared against: the df = 1
    /// χ² quantile for `chi2`, the threshold itself for the ratio
    /// measures.
    crit: f64,
    /// The df = 2 χ² cutoff of the conditional-independence test.
    ci_crit: f64,
}

impl MeasureContext {
    /// Validates `threshold` for `measure` and precomputes the run's
    /// critical values.
    ///
    /// # Errors
    ///
    /// [`MeasureError`] when the threshold is outside the measure's
    /// range ([`Measure::threshold_range`]).
    pub fn new(measure: Measure, threshold: f64) -> Result<Self, MeasureError> {
        if !measure.valid_threshold(threshold) {
            return Err(MeasureError { measure, threshold });
        }
        let (crit, ci_crit) = match measure {
            Measure::Chi2 => (chi2_quantile(threshold, 1), chi2_quantile(threshold, 2)),
            Measure::AllConfidence | Measure::Bond => {
                (threshold, chi2_quantile(CI_FALLBACK_CONFIDENCE, 2))
            }
        };
        Ok(MeasureContext {
            measure,
            threshold,
            crit,
            ci_crit,
        })
    }

    /// The measure this context judges with.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// The validated threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The precomputed cutoff the statistic is compared against.
    pub fn critical_value(&self) -> f64 {
        self.crit
    }

    /// The df = 2 χ² cutoff for conditional-independence tests.
    pub fn ci_critical_value(&self) -> f64 {
        self.ci_crit
    }

    /// The raw statistic of this context's measure on `table`.
    pub fn statistic(&self, table: &ContingencyTable) -> f64 {
        self.measure.statistic(table.view())
    }

    /// The correlation verdict on an owned table; see
    /// [`MeasureContext::correlated`].
    ///
    /// For `chi2` this is bit-identical to the historical
    /// `ContingencyTable::is_correlated(confidence)` path.
    pub fn verdict(&self, table: &ContingencyTable) -> bool {
        self.correlated(table.view())
    }

    /// The correlation verdict: `statistic ≥ critical value`, with
    /// degenerate tables (fewer than 2 items) never correlated.
    #[inline]
    pub fn correlated(&self, row: TableView<'_>) -> bool {
        row.k() >= 2 && self.measure.statistic(row) >= self.crit
    }

    /// Judges a counted row where it lies: the CT-support test at cell
    /// support `s` and cell fraction `p` first, then, only on a
    /// supported row, the measure.
    #[inline]
    pub fn judge(&self, row: TableView<'_>, s: u64, p: f64) -> Verdict {
        if row.is_ct_supported(s, p) {
            Verdict::Supported {
                correlated: self.correlated(row),
            }
        } else {
            Verdict::Unsupported
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_itemset::Itemset;

    fn table(ids: &[u32], counts: Vec<u64>) -> ContingencyTable {
        ContingencyTable::from_counts(Itemset::from_ids(ids.iter().copied()), counts)
    }

    #[test]
    fn chi2_verdict_matches_is_correlated() {
        // Figure B: significant at 90%, not at 95%.
        let t = table(&[0, 1], vec![11, 39, 20, 30]);
        for conf in [0.5, 0.9, 0.95, 0.99] {
            let ctx = MeasureContext::new(Measure::Chi2, conf).unwrap();
            assert_eq!(ctx.verdict(&t), t.is_correlated(conf), "confidence {conf}");
            assert_eq!(ctx.statistic(&t), t.chi_squared());
        }
    }

    #[test]
    fn ratio_measure_verdicts_compare_against_threshold() {
        // {both, only-0, only-1, neither} = {30, 39, 20, 11} re-ordered to
        // cells [neither, 0, 1, both].
        let t = table(&[0, 1], vec![11, 39, 20, 30]);
        // all-confidence = 30 / max(69, 50) = 30/69.
        let ac = MeasureContext::new(Measure::AllConfidence, 0.4).unwrap();
        assert!(ac.verdict(&t));
        let ac_high = MeasureContext::new(Measure::AllConfidence, 0.5).unwrap();
        assert!(!ac_high.verdict(&t));
        // bond = 30 / 89.
        let bond = MeasureContext::new(Measure::Bond, 0.3).unwrap();
        assert!(bond.verdict(&t));
        let bond_high = MeasureContext::new(Measure::Bond, 0.35).unwrap();
        assert!(!bond_high.verdict(&t));
    }

    #[test]
    fn degenerate_tables_are_never_correlated() {
        let t1 = table(&[3], vec![0, 100]);
        let empty_db = table(&[0, 1], vec![0, 0, 0, 0]);
        // Zero marginals: item 1 in no basket while item 0 is in 30 of
        // 100, and neither item in any of 100 baskets.
        let one_absent = table(&[0, 1], vec![70, 30, 0, 0]);
        let both_absent = table(&[0, 1], vec![100, 0, 0, 0]);
        for m in Measure::ALL {
            let ctx = MeasureContext::new(m, 0.5).unwrap();
            assert!(!ctx.verdict(&t1), "{m} on a singleton");
            assert_eq!(ctx.statistic(&empty_db), 0.0, "{m} on n = 0");
            assert!(!ctx.verdict(&empty_db), "{m} on n = 0");
            for (t, case) in [(&one_absent, "one"), (&both_absent, "both")] {
                assert_eq!(ctx.statistic(t), 0.0, "{m}, {case} absent");
                assert!(!ctx.verdict(t), "{m}, {case} absent");
            }
        }
    }

    #[test]
    fn pair_in_every_basket_splits_chi2_from_the_ratio_measures() {
        for n in [1, 7, 1000] {
            let t = table(&[0, 1], vec![0, 0, 0, n]);
            for conf in [0.01, 0.5, 0.9, 0.99] {
                let chi = MeasureContext::new(Measure::Chi2, conf).unwrap();
                assert_eq!(chi.statistic(&t), 0.0, "n = {n}");
                assert!(!chi.verdict(&t), "chi2 at {conf}, n = {n}");
            }
            for m in [Measure::AllConfidence, Measure::Bond] {
                for threshold in [f64::MIN_POSITIVE, 0.1, 0.5, 1.0] {
                    let ctx = MeasureContext::new(m, threshold).unwrap();
                    assert_eq!(ctx.statistic(&t), 1.0, "{m}, n = {n}");
                    assert!(ctx.verdict(&t), "{m} at {threshold}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn thresholds_are_validated_per_measure() {
        assert!(MeasureContext::new(Measure::Chi2, 0.0).is_ok());
        assert!(MeasureContext::new(Measure::Chi2, 1.0).is_err());
        assert!(MeasureContext::new(Measure::AllConfidence, 1.0).is_ok());
        assert!(MeasureContext::new(Measure::AllConfidence, 0.0).is_err());
        assert!(MeasureContext::new(Measure::Bond, 1.0).is_ok());
        assert!(MeasureContext::new(Measure::Bond, 1.5).is_err());
        let err = MeasureContext::new(Measure::Bond, 0.0).unwrap_err();
        assert!(err.to_string().contains("(0, 1]"), "{err}");
    }

    #[test]
    fn ci_critical_value_is_validated_at_construction() {
        // The df = 2 cutoff that causality.rs once computed unvalidated:
        // published table value at 95% is 5.991.
        let chi = MeasureContext::new(Measure::Chi2, 0.95).unwrap();
        assert!((chi.ci_critical_value() - 5.991_465).abs() < 1e-4);
        // Ratio measures fall back to the standard 95% cutoff even when
        // their own threshold (1.0) would be invalid as a confidence.
        let bond = MeasureContext::new(Measure::Bond, 1.0).unwrap();
        assert!((bond.ci_critical_value() - 5.991_465).abs() < 1e-4);
    }

    #[test]
    fn measure_round_trips_through_names_and_tags() {
        for m in Measure::ALL {
            assert_eq!(m.name().parse::<Measure>().unwrap(), m);
            assert_eq!(Measure::from_tag(m.tag()), Some(m));
            assert!(m.valid_threshold(m.default_threshold()));
        }
        assert!(Measure::from_tag(200).is_none());
        assert!("pearson".parse::<Measure>().is_err());
    }

    #[test]
    fn monotonicity_classes() {
        assert!(Measure::Chi2.monotonicity().is_upward());
        assert!(Measure::AllConfidence.monotonicity().is_downward());
        assert!(Measure::Bond.monotonicity().is_downward());
    }
}
