//! [`ConstraintSet`]: a conjunction of constraints, analyzed for mining.
//!
//! A constrained correlation query carries a conjunction `C` of
//! constraints. The miners never look at raw constraints; they consume a
//! [`ConstraintAnalysis`], which splits the conjunction the way §3 of the
//! paper does:
//!
//! * the **allowed-universe** constraints: the anti-monotone succinct
//!   ones, whose single-item test already removes every item no
//!   satisfying set can hold, so `GOOD₁` prunes them at candidate
//!   *generation* and no later check repeats them,
//! * **residual anti-monotone** checks (e.g. `sum ≤ c`) applied per set
//!   *before* the contingency table is built, like the CT-support test,
//! * a **witness class** from the monotone succinct constraints, seeding
//!   `L1⁺` (every answer must touch it),
//! * **residual monotone** checks applied at SIG-entry time, like the
//!   correlation test,
//! * **neither-monotone** constraints (`avg`), which the level-wise
//!   algorithms reject (§6: the solution space may have holes).

use std::fmt;

use serde::{Deserialize, Serialize};

use ccs_itemset::{Item, Itemset};

use crate::ast::{Constraint, ConstraintError};
use crate::attr::AttributeTable;
use crate::classify::Monotonicity;
use crate::succinct::{is_am_succinct, ms_witness_classes};

/// An ordered conjunction of constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// The empty conjunction (always satisfied).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a vector of constraints.
    pub fn from_vec(constraints: Vec<Constraint>) -> Self {
        ConstraintSet { constraints }
    }

    /// Adds a constraint to the conjunction.
    pub fn push(&mut self, c: Constraint) -> &mut Self {
        self.constraints.push(c);
        self
    }

    /// Builder-style [`ConstraintSet::push`].
    pub fn and(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// The constraints, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` iff the conjunction is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Validates every constraint against the attribute table.
    pub fn validate(&self, attrs: &AttributeTable) -> Result<(), ConstraintError> {
        self.constraints.iter().try_for_each(|c| c.validate(attrs))
    }

    /// `true` iff `set` satisfies every constraint.
    pub fn satisfied(&self, set: &Itemset, attrs: &AttributeTable) -> bool {
        self.constraints.iter().all(|c| c.satisfied(set, attrs))
    }

    /// `true` iff every constraint is anti-monotone — the condition of
    /// Theorem 1.2 under which `VALID_MIN(Q) = MIN_VALID(Q)`.
    pub fn all_anti_monotone(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| c.monotonicity() == Monotonicity::AntiMonotone)
    }

    /// `true` iff some constraint is neither monotone nor anti-monotone
    /// (an `avg` constraint): only the naive exhaustive miner can handle
    /// such a query, and minimal answers may not characterize the space.
    pub fn has_neither_monotone(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| c.monotonicity() == Monotonicity::Neither)
    }

    /// `true` iff `set` satisfies every *anti-monotone* constraint.
    pub fn anti_monotone_satisfied(&self, set: &Itemset, attrs: &AttributeTable) -> bool {
        self.constraints
            .iter()
            .filter(|c| c.monotonicity() == Monotonicity::AntiMonotone)
            .all(|c| c.satisfied(set, attrs))
    }

    /// `true` iff `set` satisfies every *monotone* constraint.
    pub fn monotone_satisfied(&self, set: &Itemset, attrs: &AttributeTable) -> bool {
        self.constraints
            .iter()
            .filter(|c| c.monotonicity() == Monotonicity::Monotone)
            .all(|c| c.satisfied(set, attrs))
    }

    /// Analyzes the conjunction against `attrs` for use by the
    /// constraint-pushing miners (BMS++ / BMS**).
    pub fn analyze(&self, attrs: &AttributeTable) -> ConstraintAnalysis {
        let n = attrs.n_items() as usize;

        let mut universe_contributors = Vec::new();
        let mut am_residual = Vec::new();
        let mut m_residual = Vec::new();
        let mut neither = Vec::new();

        // Candidate witness classes: (constraint index, single-class?, items).
        let mut classes: Vec<(usize, bool, Vec<Item>)> = Vec::new();

        for (idx, c) in self.constraints.iter().enumerate() {
            match c.monotonicity() {
                Monotonicity::AntiMonotone if is_am_succinct(c) => universe_contributors.push(idx),
                Monotonicity::AntiMonotone => am_residual.push(idx),
                Monotonicity::Monotone => match ms_witness_classes(c, attrs) {
                    Some(cls) => {
                        let single = cls.len() == 1;
                        for class in cls {
                            classes.push((idx, single, class));
                        }
                    }
                    None => m_residual.push(idx),
                },
                Monotonicity::Neither => neither.push(idx),
            }
        }

        // Choose the smallest witness class for L1⁺ (tightest pruning).
        // Every answer must intersect every class, so any single class is a
        // sound choice. The contributing constraint is "captured" (its
        // satisfaction is implied by touching the class) only if it is
        // single-class; all other monotone-succinct constraints become
        // residual SIG-time checks (footnote 5 of the paper).
        let mut witness_class: Option<Vec<bool>> = None;
        let mut witness_source: Option<usize> = None;
        let mut captured_m: Option<usize> = None;
        if let Some((idx, single, class)) = classes.iter().min_by_key(|(_, _, class)| class.len()) {
            let mut mask = vec![false; n];
            for i in class {
                mask[i.index()] = true;
            }
            witness_class = Some(mask);
            witness_source = Some(*idx);
            if *single {
                captured_m = Some(*idx);
            }
        }
        for (idx, c) in self.constraints.iter().enumerate() {
            if c.monotonicity() == Monotonicity::Monotone
                && Some(idx) != captured_m
                && !m_residual.contains(&idx)
            {
                m_residual.push(idx);
            }
        }
        m_residual.sort_unstable();

        ConstraintAnalysis {
            constraints: self.constraints.clone(),
            universe_contributors,
            am_residual,
            witness_class,
            witness_source,
            captured_m,
            m_residual,
            neither,
        }
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        ConstraintSet {
            constraints: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "true");
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// The outcome of analyzing a conjunction against an attribute table,
/// consumed by the constraint-pushing miners.
#[derive(Debug, Clone)]
pub struct ConstraintAnalysis {
    constraints: Vec<Constraint>,
    /// Indices of the am-succinct constraints folded into the universe.
    universe_contributors: Vec<usize>,
    /// Indices of anti-monotone constraints requiring per-set checks.
    am_residual: Vec<usize>,
    /// `mask[i]` = item `i` belongs to the chosen `L1⁺` witness class.
    /// `None` when no exploitable monotone-succinct constraint exists.
    witness_class: Option<Vec<bool>>,
    /// Index of the constraint whose class was chosen for `L1⁺`.
    witness_source: Option<usize>,
    /// Index of the monotone constraint fully captured by the witness
    /// class (single-class only; multi-class sources stay residual).
    captured_m: Option<usize>,
    /// Indices of monotone constraints requiring SIG-entry checks.
    m_residual: Vec<usize>,
    /// Indices of neither-monotone constraints (`avg`).
    neither: Vec<usize>,
}

impl ConstraintAnalysis {
    /// `true` iff there is an exploitable monotone-succinct witness class.
    pub fn has_witness_class(&self) -> bool {
        self.witness_class.is_some()
    }

    /// `true` iff item `i` is in the chosen witness class. When no class
    /// exists this returns `true` for every item (the degenerate `L1⁺ =
    /// L1` split: no monotone pruning).
    pub fn item_witnesses(&self, item: Item) -> bool {
        self.witness_class.as_ref().is_none_or(|m| m[item.index()])
    }

    /// Per-set check of the residual anti-monotone constraints (applied
    /// before building a contingency table).
    pub fn am_residual_satisfied(&self, set: &Itemset, attrs: &AttributeTable) -> bool {
        self.am_residual
            .iter()
            .all(|&i| self.constraints[i].satisfied(set, attrs))
    }

    /// Per-set check of the residual monotone constraints (applied at
    /// SIG-entry time).
    pub fn m_residual_satisfied(&self, set: &Itemset, attrs: &AttributeTable) -> bool {
        self.m_residual
            .iter()
            .all(|&i| self.constraints[i].satisfied(set, attrs))
    }

    /// `true` iff the conjunction contains a neither-monotone constraint.
    pub fn has_neither_monotone(&self) -> bool {
        !self.neither.is_empty()
    }

    /// Indices (into the analyzed conjunction) of the am-succinct
    /// constraints folded into the allowed universe.
    pub fn universe_contributors(&self) -> &[usize] {
        &self.universe_contributors
    }

    /// Indices of the residual anti-monotone constraints.
    pub fn am_residual_indices(&self) -> &[usize] {
        &self.am_residual
    }

    /// Indices of the residual monotone constraints.
    pub fn m_residual_indices(&self) -> &[usize] {
        &self.m_residual
    }

    /// Index of the constraint whose witness class seeds `L1⁺`, if any.
    pub fn witness_source(&self) -> Option<usize> {
        self.witness_source
    }

    /// Index of the monotone constraint fully captured by the chosen
    /// witness class (`None` when the source is multi-class and must be
    /// re-checked at SIG-entry time).
    pub fn captured_monotone(&self) -> Option<usize> {
        self.captured_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::succinct::am_allowed_items;
    use std::collections::BTreeSet;

    fn attrs() -> AttributeTable {
        let mut t = AttributeTable::new(6);
        t.add_numeric("price", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.add_categorical("type", &["soda", "soda", "snack", "dairy", "dairy", "beer"]);
        t
    }

    #[test]
    fn empty_conjunction_is_always_satisfied() {
        let a = attrs();
        let cs = ConstraintSet::new();
        assert!(cs.satisfied(&Itemset::from_ids([0, 5]), &a));
        assert!(cs.all_anti_monotone()); // vacuously
        let an = cs.analyze(&a);
        assert!(an.universe_contributors().is_empty());
        assert!(!an.has_witness_class());
        assert!(an.item_witnesses(Item(3)));
    }

    #[test]
    fn conjunction_evaluation_and_splits() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 5.0)) // anti-monotone
            .and(Constraint::min_le("price", 2.0)); // monotone
        let s_ok = Itemset::from_ids([0, 4]); // prices 1,5
        let s_bad_m = Itemset::from_ids([2, 3]); // min 3 > 2
        let s_bad_am = Itemset::from_ids([0, 5]); // max 6 > 5
        assert!(cs.satisfied(&s_ok, &a));
        assert!(!cs.satisfied(&s_bad_m, &a));
        assert!(!cs.satisfied(&s_bad_am, &a));
        assert!(cs.anti_monotone_satisfied(&s_bad_m, &a));
        assert!(!cs.monotone_satisfied(&s_bad_m, &a));
        assert!(!cs.anti_monotone_satisfied(&s_bad_am, &a));
        assert!(cs.monotone_satisfied(&s_bad_am, &a));
        assert!(!cs.all_anti_monotone());
        assert!(!cs.has_neither_monotone());
    }

    #[test]
    fn analysis_builds_universe_from_am_succinct() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 4.0))
            .and(Constraint::min_ge("price", 2.0));
        let an = cs.analyze(&a);
        // Both are captured by the universe: neither is a residual check.
        assert_eq!(an.universe_contributors(), &[0, 1]);
        assert_eq!(an.am_residual_indices().len(), 0);
        // Intersection: prices in [2, 4] → items 1, 2, 3.
        let allowed: Vec<BTreeSet<Item>> = cs
            .constraints()
            .iter()
            .map(|c| am_allowed_items(c, &a).unwrap().into_iter().collect())
            .collect();
        let universe: Vec<Item> = allowed[0].intersection(&allowed[1]).copied().collect();
        assert_eq!(universe, vec![Item(1), Item(2), Item(3)]);
    }

    #[test]
    fn analysis_keeps_sum_as_residual() {
        let a = attrs();
        let cs = ConstraintSet::new().and(Constraint::sum_le("price", 7.0));
        let an = cs.analyze(&a);
        // No universe pruning for sum.
        assert!(am_allowed_items(&cs.constraints()[0], &a).is_none());
        assert!(an.universe_contributors().is_empty());
        assert_eq!(an.am_residual_indices().len(), 1);
        assert!(an.am_residual_satisfied(&Itemset::from_ids([0, 1]), &a)); // 3 ≤ 7
        assert!(!an.am_residual_satisfied(&Itemset::from_ids([2, 4]), &a)); // 8 > 7
    }

    #[test]
    fn analysis_picks_smallest_witness_class() {
        let a = attrs();
        // min ≤ 2 has 2 witnesses (items 0,1); max ≥ 6 has 1 (item 5).
        let cs = ConstraintSet::new()
            .and(Constraint::min_le("price", 2.0))
            .and(Constraint::max_ge("price", 6.0));
        let an = cs.analyze(&a);
        assert!(an.has_witness_class());
        assert!(an.item_witnesses(Item(5)));
        assert!(!an.item_witnesses(Item(0)));
        // The un-chosen monotone constraint must be a residual check.
        assert_eq!(an.m_residual_indices().len(), 1);
        assert!(an.m_residual_satisfied(&Itemset::from_ids([1, 5]), &a)); // min 2 ≤ 2
        assert!(!an.m_residual_satisfied(&Itemset::from_ids([2, 5]), &a)); // min 3 > 2
    }

    #[test]
    fn multi_witness_subset_constraint_is_residual() {
        let a = attrs();
        let col = a.categorical("type").unwrap();
        let need: BTreeSet<u32> = ["soda", "beer"]
            .iter()
            .map(|l| col.id_of(l).unwrap())
            .collect();
        let cs = ConstraintSet::new().and(Constraint::ConstSubset {
            attr: "type".into(),
            categories: need,
            negated: false,
        });
        let an = cs.analyze(&a);
        // A class is still usable for L1⁺ (beer is the smallest class)…
        assert!(an.has_witness_class());
        assert!(an.item_witnesses(Item(5)));
        // …but the constraint itself is NOT captured (footnote 5): it
        // remains a SIG-time residual check.
        assert_eq!(an.m_residual_indices().len(), 1);
        assert!(!an.m_residual_satisfied(&Itemset::from_ids([5]), &a)); // beer only
        assert!(an.m_residual_satisfied(&Itemset::from_ids([0, 5]), &a)); // soda + beer
    }

    #[test]
    fn neither_monotone_detected() {
        let a = attrs();
        let cs = ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: crate::ast::Cmp::Le,
            value: 3.0,
        });
        assert!(cs.has_neither_monotone());
        assert!(cs.analyze(&a).has_neither_monotone());
    }

    #[test]
    fn validate_propagates_errors() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 1.0))
            .and(Constraint::max_le("weight", 1.0));
        assert!(cs.validate(&a).is_err());
    }

    #[test]
    fn display_joins_with_ampersand() {
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 10.0))
            .and(Constraint::sum_ge("price", 5.0));
        assert_eq!(cs.to_string(), "max(S.price) <= 10 & sum(S.price) >= 5");
        assert_eq!(ConstraintSet::new().to_string(), "true");
    }
}
