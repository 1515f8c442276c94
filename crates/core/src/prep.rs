//! Preprocessing shared by the kernel's policies.
//!
//! Every miner seeds its sweep from the frequent-item basis; the
//! constraint-pushing pair (BMS++, BMS**) additionally restricts it to
//! `GOOD₁` and splits that into the witness class `L1⁺` and the rest
//! `L1⁻` (preprocessing step I of §3.1). BMS*'s upward sweep, the border
//! sweep and causal discovery draw their universe from `GOOD₁` too.

use ccs_constraints::{AttributeTable, ConstraintAnalysis};
use ccs_itemset::candidate::{self, drop_one_into};
use ccs_itemset::{Item, Itemset, TransactionDb};

use crate::params::MiningParams;
use crate::query::CorrelationQuery;

/// The frequent-item basis: the `O(i) ≥ s` filter of the pseudo-code,
/// with `s = min_item_support` (0 ⇒ all items participate).
pub(crate) fn frequent_items(db: &TransactionDb, params: &MiningParams) -> Vec<Item> {
    let threshold = params.item_support_abs(db.len());
    let supports = db.item_supports();
    (0..db.n_items())
        .map(Item::new)
        .filter(|i| supports[i.index()] as u64 >= threshold)
        .collect()
}

/// `GOOD₁` — the frequent items whose singletons pass every anti-monotone
/// constraint (this subsumes the succinct universes: an item outside
/// `σ_{A≤c}(Item)` fails `max(S.A) ≤ c` as a singleton).
pub(crate) fn good1_items(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
) -> Vec<Item> {
    frequent_items(db, &query.params)
        .into_iter()
        .filter(|&i| {
            query
                .constraints
                .anti_monotone_satisfied(&Itemset::singleton(i), attrs)
        })
        .collect()
}

/// Splits `GOOD₁` into the witness class `L1⁺` and the rest `L1⁻`.
pub(crate) fn witness_split(
    good1: &[Item],
    analysis: &ConstraintAnalysis,
) -> (Vec<Item>, Vec<Item>) {
    let l1_plus: Vec<Item> = good1
        .iter()
        .copied()
        .filter(|&i| analysis.item_witnesses(i))
        .collect();
    let l1_minus = good1
        .iter()
        .copied()
        .filter(|&i| !analysis.item_witnesses(i))
        .collect();
    (l1_plus, l1_minus)
}

/// Dense membership mask of the witness class `L1⁺`, indexed by item
/// id.
pub(crate) struct WitnessMask(Vec<bool>);

impl WitnessMask {
    fn new(n_items: usize, l1_plus: &[Item]) -> Self {
        let mut mask = vec![false; n_items];
        for &i in l1_plus {
            mask[i.index()] = true;
        }
        WitnessMask(mask)
    }

    /// `true` iff `item` is in `L1⁺`.
    pub(crate) fn contains(&self, item: Item) -> bool {
        self.0[item.index()]
    }

    /// Modification II's candidate rule of BMS++ (and BMS** phase 1):
    /// every `(k−1)`-subset of `cand` that contains a witness is in the
    /// previous level, which `in_level` tests. The subsets are assembled
    /// in `subset`, a reused buffer.
    fn subsets_in(
        &self,
        cand: &[Item],
        in_level: impl Fn(&[Item]) -> bool,
        subset: &mut Vec<Item>,
    ) -> bool {
        let witnesses = cand.iter().filter(|&&i| self.contains(i)).count();
        (0..cand.len()).all(|drop| {
            // Dropping the only witness leaves a subset the rule ignores.
            if witnesses == usize::from(self.contains(cand[drop])) {
                return true;
            }
            drop_one_into(cand, drop, subset);
            in_level(subset)
        })
    }

    /// The next level's candidates under modification II: every
    /// single-item extension of a set of `level` by an item of `good1`
    /// whose witness-holding `(k−1)`-subsets all pass `in_level`. Each
    /// set of `level` holds a witness and has its items in `good1`, which
    /// [`candidate::witness_gen`] needs to build each candidate once.
    pub(crate) fn extend<'a>(
        &self,
        level: impl IntoIterator<Item = &'a Itemset>,
        good1: &[Item],
        in_level: impl Fn(&[Item]) -> bool,
    ) -> Vec<Itemset> {
        let mut subset = Vec::new();
        candidate::witness_gen(
            level,
            good1,
            |i| self.contains(i),
            |cand| self.subsets_in(cand, &in_level, &mut subset),
        )
    }
}

/// `GOOD₁`, its witness split, and the witness membership mask — the
/// full preprocessing step I bundle BMS++ and BMS** both start from.
pub(crate) struct Preprocessed {
    pub(crate) good1: Vec<Item>,
    pub(crate) l1_plus: Vec<Item>,
    pub(crate) l1_minus: Vec<Item>,
    pub(crate) witness: WitnessMask,
}

pub(crate) fn preprocess(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    analysis: &ConstraintAnalysis,
) -> Preprocessed {
    let good1 = good1_items(db, attrs, query);
    let (l1_plus, l1_minus) = witness_split(&good1, analysis);
    let witness = WitnessMask::new(db.n_items() as usize, &l1_plus);
    Preprocessed {
        good1,
        l1_plus,
        l1_minus,
        witness,
    }
}
