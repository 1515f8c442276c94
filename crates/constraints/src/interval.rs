//! Per-attribute interval reasoning over aggregate bounds.
//!
//! The static analyzer ([`crate::analyze`](mod@crate::analyze)) folds every aggregate
//! constraint of a conjunction into a small set of intervals — one per
//! `(attribute, aggregate)` pair — and then applies algebraic relations
//! between aggregates (`min(S) ≤ avg(S) ≤ max(S)`, `sum(S) ≥ max(S)` on
//! non-negative domains, `|distinct categories| ≤ |S|`, …) to detect
//! conjunctions no itemset can satisfy. Everything here is *sound over
//! the answer space*: a reported conflict means no set of ≥ 2 items drawn
//! from the attribute table satisfies all involved constraints.

use crate::ast::Cmp;

/// Summary statistics of one numeric column, precomputed once per
/// analyzed attribute. The second-order statistics (`lo2`, `hi2`) exist
/// because answers contain at least two items: `min(S)` can never exceed
/// the second-largest value, `max(S)` can never undercut the
/// second-smallest, and `sum(S)` is at least the two smallest combined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnProfile {
    /// Smallest value in the column.
    pub lo: f64,
    /// Largest value in the column.
    pub hi: f64,
    /// Second-smallest value (counting duplicates); `None` for a
    /// single-item universe.
    pub lo2: Option<f64>,
    /// Second-largest value (counting duplicates).
    pub hi2: Option<f64>,
    /// Sum of the whole column.
    pub total: f64,
}

impl ColumnProfile {
    /// Profiles a column; `None` when the universe is empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let (&lo, &hi) = (sorted.first()?, sorted.last()?);
        Some(ColumnProfile {
            lo,
            hi,
            lo2: sorted.get(1).copied(),
            hi2: sorted.len().checked_sub(2).map(|i| sorted[i]),
            total: sorted.iter().sum(),
        })
    }
}

/// One side of an interval: the bound value plus the index (into the
/// analyzed conjunction) of the constraint that imposed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// The bound value.
    pub value: f64,
    /// Index of the constraint the bound came from.
    pub source: usize,
}

/// The interval a conjunction leaves for one aggregate quantity, built by
/// folding `≥` bounds into `lo` (keeping the largest) and `≤` bounds into
/// `hi` (keeping the smallest). On ties the earliest constraint wins, so
/// conflict cores are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    /// Tightest lower bound seen, if any.
    pub lo: Option<Bound>,
    /// Tightest upper bound seen, if any.
    pub hi: Option<Bound>,
}

impl Interval {
    /// Folds one more constraint into the interval.
    pub fn tighten(&mut self, cmp: Cmp, value: f64, source: usize) {
        let side = match cmp {
            Cmp::Ge => &mut self.lo,
            Cmp::Le => &mut self.hi,
        };
        let tighter = match (cmp, &side) {
            (_, None) => true,
            (Cmp::Ge, Some(b)) => value > b.value,
            (Cmp::Le, Some(b)) => value < b.value,
        };
        if tighter {
            *side = Some(Bound { value, source });
        }
    }

    /// The pair of bounds proving the interval empty (`lo > hi`), if so.
    /// `lo == hi` is *not* a conflict: the aggregate may land exactly on
    /// the shared bound.
    pub fn conflict(&self) -> Option<(Bound, Bound)> {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) if lo.value > hi.value => Some((lo, hi)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_orders_statistics() {
        let p = ColumnProfile::of(&[3.0, 1.0, 2.0, 2.0]).unwrap();
        assert_eq!(p.lo, 1.0);
        assert_eq!(p.hi, 3.0);
        assert_eq!(p.lo2, Some(2.0));
        assert_eq!(p.hi2, Some(2.0)); // duplicates count
        assert_eq!(p.total, 8.0);
        assert_eq!(ColumnProfile::of(&[]), None);
        let single = ColumnProfile::of(&[5.0]).unwrap();
        assert_eq!(single.lo2, None);
        assert_eq!(single.hi2, None);
    }

    #[test]
    fn tighten_keeps_strictest_bound() {
        let mut iv = Interval::default();
        iv.tighten(Cmp::Ge, 2.0, 0);
        iv.tighten(Cmp::Ge, 5.0, 1);
        iv.tighten(Cmp::Ge, 3.0, 2);
        assert_eq!(
            iv.lo,
            Some(Bound {
                value: 5.0,
                source: 1
            })
        );
        iv.tighten(Cmp::Le, 9.0, 3);
        iv.tighten(Cmp::Le, 7.0, 4);
        assert_eq!(
            iv.hi,
            Some(Bound {
                value: 7.0,
                source: 4
            })
        );
        assert!(iv.conflict().is_none()); // [5, 7] is non-empty
    }

    #[test]
    fn ties_keep_the_earliest_source() {
        let mut iv = Interval::default();
        iv.tighten(Cmp::Le, 4.0, 0);
        iv.tighten(Cmp::Le, 4.0, 1);
        assert_eq!(iv.hi.unwrap().source, 0);
    }

    #[test]
    fn empty_interval_reports_both_culprits() {
        let mut iv = Interval::default();
        iv.tighten(Cmp::Le, 3.0, 0);
        iv.tighten(Cmp::Ge, 8.0, 1);
        let (lo, hi) = iv.conflict().unwrap();
        assert_eq!((lo.source, hi.source), (1, 0));
        // A point interval is satisfiable.
        let mut point = Interval::default();
        point.tighten(Cmp::Le, 3.0, 0);
        point.tighten(Cmp::Ge, 3.0, 1);
        assert!(point.conflict().is_none());
    }
}
