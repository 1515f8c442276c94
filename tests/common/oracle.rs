//! The from-definitions reference the differential suites check the
//! miners against. It recounts every set's minterm cells by masking each
//! transaction against the set (no counter, no `Engine`, no verdict
//! cache) and derives both answer semantics literally from the
//! definitions of §3, by explicit minimality over all proper subsets.
//!
//! The ratio measures (all-confidence, bond) are recomputed from the
//! cells by hand. χ² takes its statistic and its df = 1 cutoff from the
//! public `MiningParams::measure_context()` over a table built from the
//! recounted cells, so the verdict is the library's own comparison, fed
//! by independent counts.

use std::collections::{HashMap, HashSet};

use ccs::prelude::*;
use ccs::stats::ContingencyTable;

/// One set's standing under a query, from the definitions.
#[derive(Clone, Copy, Debug)]
pub struct Flags {
    /// Correlated and CT-supported.
    pub in_space: bool,
    /// Satisfies the query's constraints.
    pub valid: bool,
}

/// Recomputes one set's flags from raw transaction scans: minterm counts
/// by masking each transaction against `items` (ascending ids), the
/// measure's statistic from those cells, and the CT-support cell test.
pub fn flags_from_scratch(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    items: &[u32],
) -> Flags {
    let k = items.len();
    let mut cells = vec![0u64; 1 << k];
    for txn in db.transactions() {
        let present: HashSet<u32> = txn.iter().map(|i| i.id()).collect();
        let mut mask = 0usize;
        for (bit, &item) in items.iter().enumerate() {
            if present.contains(&item) {
                mask |= 1 << bit;
            }
        }
        cells[mask] += 1;
    }
    let set = Itemset::from_ids(items.iter().copied());
    let s_abs = q.params.support_abs(db.len());
    let meeting = cells.iter().filter(|&&c| c >= s_abs).count();
    let ct_supported = meeting as f64 + 1e-9 >= q.params.ct_fraction * cells.len() as f64;
    let valid = q.constraints.satisfied(&set, attrs);
    let all = cells[(1 << k) - 1];
    let correlated = match q.params.measure {
        Measure::AllConfidence => {
            let max_marginal = (0..k)
                .map(|bit| {
                    cells
                        .iter()
                        .enumerate()
                        .filter(|(m, _)| m & (1 << bit) != 0)
                        .map(|(_, &c)| c)
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            let statistic = if max_marginal == 0 {
                0.0
            } else {
                all as f64 / max_marginal as f64
            };
            statistic >= q.params.confidence
        }
        Measure::Bond => {
            let union = db.len() as u64 - cells[0];
            let statistic = if union == 0 {
                0.0
            } else {
                all as f64 / union as f64
            };
            statistic >= q.params.confidence
        }
        Measure::Chi2 => {
            let ctx = q.params.measure_context().unwrap();
            let table = ContingencyTable::from_counts(set, cells);
            ctx.statistic(&table) >= ctx.critical_value()
        }
    };
    Flags {
        in_space: correlated && ct_supported,
        valid,
    }
}

/// Flags for every itemset over the item basis (the items meeting
/// `min_item_support`) from pairs up to `max_level`, keyed by ascending
/// item ids.
pub fn reference_flags(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
) -> HashMap<Vec<u32>, Flags> {
    let threshold = q.params.item_support_abs(db.len());
    let mut supports = vec![0u64; db.n_items() as usize];
    for txn in db.transactions() {
        for item in txn {
            supports[item.index()] += 1;
        }
    }
    let basis: Vec<u32> = (0..db.n_items())
        .filter(|&i| supports[i as usize] >= threshold)
        .collect();
    let top = q.params.max_level.min(basis.len());

    let mut flags = HashMap::new();
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if (2..=top).contains(&prefix.len()) {
            flags.insert(prefix.clone(), flags_from_scratch(db, attrs, q, &prefix));
        }
        if prefix.len() < top {
            let start = prefix.last().map_or(0, |&l| l + 1);
            for &item in basis.iter().filter(|&&i| i >= start) {
                let mut next = prefix.clone();
                next.push(item);
                stack.push(next);
            }
        }
    }
    flags
}

/// The answer set under `semantics`, derived from `flags` by explicit
/// minimality: `VALID_MIN` is the valid sets minimal in the space,
/// `MIN_VALID` the sets minimal among the valid members of the space.
pub fn answers_from_flags(flags: &HashMap<Vec<u32>, Flags>, semantics: Semantics) -> Vec<Itemset> {
    let in_space = |f: &Flags| match semantics {
        Semantics::ValidMin => f.in_space,
        Semantics::MinValid => f.in_space && f.valid,
    };
    let mut answers: Vec<Itemset> = Vec::new();
    for (items, f) in flags {
        if !in_space(f) || (semantics == Semantics::ValidMin && !f.valid) {
            continue;
        }
        let minimal = proper_subsets(items)
            .into_iter()
            .all(|s| flags.get(&s).is_none_or(|sf| !in_space(sf)));
        if minimal {
            answers.push(Itemset::from_ids(items.iter().copied()));
        }
    }
    answers.sort_unstable();
    answers
}

/// The from-definitions answer set of `q` under `semantics`.
pub fn reference_answers(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    semantics: Semantics,
) -> Vec<Itemset> {
    answers_from_flags(&reference_flags(db, attrs, q), semantics)
}

/// All proper subsets of size ≥ 2, each sorted ascending like its input.
fn proper_subsets(items: &[u32]) -> Vec<Vec<u32>> {
    let k = items.len();
    (1usize..(1 << k) - 1)
        .filter(|m| m.count_ones() >= 2)
        .map(|m| {
            (0..k)
                .filter(|bit| m & (1 << bit) != 0)
                .map(|bit| items[bit])
                .collect()
        })
        .collect()
}
