//! Mining parameters shared by every algorithm.

use ccs_itemset::MAX_TABLE_WIDTH;
use ccs_stats::{Measure, MeasureContext, MeasureError};
use thiserror::Error;

/// An out-of-range statistical parameter, rejected by
/// [`MiningParams::validate`].
#[derive(Debug, Clone, PartialEq, Error)]
pub enum ParamError {
    /// The measure threshold is outside the measure's range.
    #[error("{0}")]
    Threshold(#[from] MeasureError),
    /// A fraction parameter is outside `[0, 1]`.
    #[error("{name} must be in [0, 1], got {value}")]
    Fraction {
        /// The field's name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `max_level` is below 2: no level of pairs would be mined.
    #[error("max_level must be at least 2, got {0}")]
    MaxLevel(usize),
    /// `max_level` is above [`MAX_TABLE_WIDTH`] (20), the widest
    /// contingency table the tid-set and FP-tree counters build.
    #[error("max_level must be at most {MAX_TABLE_WIDTH}, since a k-item contingency table has 2^k cells, got {0}")]
    Width(usize),
}

/// The statistical parameters of a correlation query: the correlation
/// measure and its threshold, the cell-support threshold `s` (as a
/// fraction of the database size), and the cell fraction `p` of the
/// CT-support test — the `(α, s, p%)` triple of Brin et al. that the
/// paper keeps, generalized over the measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningParams {
    /// The correlation measure the run tests ([`Measure::Chi2`] is the
    /// paper's, and the default).
    pub measure: Measure,
    /// The measure threshold, validated per measure at
    /// [`MiningParams::measure_context`]. For χ² this is the confidence
    /// level — the field keeps the paper's spelling (the experiments
    /// use 0.9: an itemset is correlated when its statistic exceeds the
    /// 90% quantile); for all-confidence/bond it is the ratio cutoff in
    /// `(0, 1]`.
    pub confidence: f64,
    /// Cell-support threshold `s` as a fraction of the number of baskets
    /// (0.25 in the paper's experiments).
    pub support_fraction: f64,
    /// Fraction `p` of contingency cells that must reach `s` for
    /// CT-support (0.25 in the paper's experiments).
    pub ct_fraction: f64,
    /// Minimum relative support an item needs to participate at all
    /// (the `O(i) ≥ s` filter of the paper's pseudo-code). `0.0` disables
    /// the filter, which matches the 25%-threshold experiments where a
    /// literal reading would prune every item of a sparse basket
    /// database.
    pub min_item_support: f64,
    /// Safety cap on the lattice level (inclusive). The paper's
    /// experiments never see answers above level 4; the cap bounds
    /// runaway sweeps on adversarial inputs.
    pub max_level: usize,
}

impl MiningParams {
    /// The paper's experimental configuration: confidence 0.9, `s` = 25%
    /// of baskets, `p` = 25% of cells.
    pub fn paper() -> Self {
        MiningParams {
            measure: Measure::Chi2,
            confidence: 0.9,
            support_fraction: 0.25,
            ct_fraction: 0.25,
            min_item_support: 0.0,
            max_level: 8,
        }
    }

    /// The validated per-run measure criterion: the single place the
    /// threshold is range-checked and the critical values precomputed.
    ///
    /// # Errors
    ///
    /// [`MeasureError`] when `confidence` is outside the measure's
    /// range.
    pub fn measure_context(&self) -> Result<MeasureContext, MeasureError> {
        MeasureContext::new(self.measure, self.confidence)
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// [`ParamError`] naming the first out-of-range value.
    pub fn validate(&self) -> Result<(), ParamError> {
        self.measure_context()?;
        for (name, value) in [
            ("support_fraction", self.support_fraction),
            ("ct_fraction", self.ct_fraction),
            ("min_item_support", self.min_item_support),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ParamError::Fraction { name, value });
            }
        }
        if self.max_level < 2 {
            return Err(ParamError::MaxLevel(self.max_level));
        }
        if self.max_level > MAX_TABLE_WIDTH {
            return Err(ParamError::Width(self.max_level));
        }
        Ok(())
    }

    /// The absolute cell-support threshold for a database of `n` baskets.
    pub fn support_abs(&self, n: usize) -> u64 {
        (self.support_fraction * n as f64).ceil() as u64
    }

    /// The absolute item-support threshold for a database of `n` baskets.
    pub fn item_support_abs(&self, n: usize) -> u64 {
        (self.min_item_support * n as f64).ceil() as u64
    }
}

impl Default for MiningParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = MiningParams::paper();
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.measure, Measure::Chi2);
        assert_eq!(p.confidence, 0.9);
        assert_eq!(p.support_fraction, 0.25);
        assert_eq!(p.ct_fraction, 0.25);
    }

    #[test]
    fn thresholds_validate_per_measure() {
        // 1.0 is invalid as a χ² confidence but the top of the ratio
        // measures' range; 0.0 is the reverse.
        for measure in [Measure::AllConfidence, Measure::Bond] {
            assert!(MiningParams {
                measure,
                confidence: 1.0,
                ..MiningParams::paper()
            }
            .validate()
            .is_ok());
            assert!(MiningParams {
                measure,
                confidence: 0.0,
                ..MiningParams::paper()
            }
            .measure_context()
            .is_err());
        }
        assert!(MiningParams {
            confidence: 0.0,
            ..MiningParams::paper()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn absolute_thresholds_round_up() {
        let p = MiningParams {
            support_fraction: 0.25,
            ..MiningParams::paper()
        };
        assert_eq!(p.support_abs(100), 25);
        assert_eq!(p.support_abs(101), 26);
        assert_eq!(p.support_abs(0), 0);
        let q = MiningParams {
            min_item_support: 0.1,
            ..MiningParams::paper()
        };
        assert_eq!(q.item_support_abs(95), 10);
    }

    #[test]
    fn out_of_range_values_are_typed_errors() {
        let paper = MiningParams::paper();
        let cases = [
            MiningParams {
                confidence: 1.0,
                ..paper
            },
            MiningParams {
                support_fraction: 1.5,
                ..paper
            },
            MiningParams {
                ct_fraction: -0.1,
                ..paper
            },
            MiningParams {
                min_item_support: 2.0,
                ..paper
            },
            MiningParams {
                max_level: 1,
                ..paper
            },
            MiningParams {
                max_level: MAX_TABLE_WIDTH + 1,
                ..paper
            },
        ];
        let errors: Vec<String> = cases
            .iter()
            .map(|p| p.validate().unwrap_err().to_string())
            .collect();
        assert!(errors[0].contains("threshold"), "{}", errors[0]);
        assert_eq!(errors[1], "support_fraction must be in [0, 1], got 1.5");
        assert_eq!(errors[2], "ct_fraction must be in [0, 1], got -0.1");
        assert_eq!(errors[3], "min_item_support must be in [0, 1], got 2");
        assert_eq!(errors[4], "max_level must be at least 2, got 1");
        assert_eq!(
            errors[5],
            "max_level must be at most 20, since a k-item contingency table has 2^k cells, got 21"
        );
        let widest = MiningParams {
            max_level: MAX_TABLE_WIDTH,
            ..paper
        };
        assert_eq!(widest.validate(), Ok(()));
    }
}
