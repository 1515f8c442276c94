//! Answer checking from outside the library.
//!
//! Each distinct query's reference answers are computed once with the
//! benchmark's own counting backend, [`BitmapCounter`], and checked for
//! soundness against the raw transactions. Every timed operation is then
//! compared with its query's reference digest.

use std::collections::{HashMap, HashSet};

use ccs::itemset::{CountingStats, MintermCounter};
use ccs::prelude::*;

/// What a query's answers must be, from its reference run.
pub struct Reference {
    pub digest: u64,
    /// The number of reference answers.
    pub answers: usize,
    /// Cells of each counting batch of the complete run, in order.
    pub batch_cells: Vec<u64>,
    /// The cell budget of this query's cold jobs, if it has any.
    pub cold_budget: Option<u64>,
}

impl Reference {
    /// A cell budget under which the query's guarded run trips
    /// mid-sweep: one that runs out at the end of the middle counting
    /// batch, so work is left whatever the counter does within a batch.
    /// A one-batch run can trip only inside its batch, which a counter
    /// that counts candidates in turn (`sequential`) does as soon as
    /// half the batch's cells are charged; a pooled counter may finish
    /// the batch anyway, so such a query is not used with one (`None`).
    pub fn mid_sweep_budget(&self, sequential: bool) -> Option<u64> {
        match self.batch_cells[..] {
            [] => None,
            [only] => (sequential && only >= 8).then_some(only / 2),
            ref all => Some(all[..all.len().div_ceil(2)].iter().sum()),
        }
    }
}

/// FNV-1a over the (sorted) answers' item ids, with a separator per set.
pub fn digest(answers: &[Itemset]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for set in answers {
        for item in set.iter() {
            eat(item.id());
        }
        eat(u32::MAX);
    }
    h
}

/// The reference counting backend: per-item basket bitmaps built by one
/// direct scan of the baskets, from which any itemset's minterm counts
/// follow by bitmap intersection and inclusion–exclusion. It is this
/// benchmark's own code and shares nothing with the library's counters.
pub struct BitmapCounter {
    n: u64,
    items: Vec<Vec<u64>>,
    stats: CountingStats,
}

impl BitmapCounter {
    pub fn new(db: &TransactionDb) -> BitmapCounter {
        let words = db.len().div_ceil(64);
        let mut items = vec![vec![0u64; words]; db.n_items() as usize];
        for (tid, basket) in db.transactions().enumerate() {
            for item in basket {
                items[item.id() as usize][tid / 64] |= 1 << (tid % 64);
            }
        }
        BitmapCounter {
            n: db.len() as u64,
            items,
            stats: CountingStats::default(),
        }
    }

    /// The `2^k` minterm counts of `set` (bit `j` of a cell index set iff
    /// the `j`-th smallest item is present): the support of every subset
    /// by bitmap intersection, then inclusion–exclusion down to cells.
    fn cells(&self, set: &Itemset) -> Vec<u64> {
        let k = set.len();
        let bitmaps: Vec<&[u64]> = set
            .iter()
            .map(|i| &self.items[i.id() as usize][..])
            .collect();
        // `meets[mask]`: the baskets holding every item of `mask`.
        let mut meets: Vec<Vec<u64>> = Vec::with_capacity(1 << k);
        meets.push(vec![u64::MAX; self.n.div_ceil(64) as usize]);
        let mut cells = vec![self.n; 1 << k];
        for mask in 1..1usize << k {
            let meet: Vec<u64> = meets[mask & (mask - 1)]
                .iter()
                .zip(bitmaps[mask.trailing_zeros() as usize])
                .map(|(a, b)| a & b)
                .collect();
            cells[mask] = meet.iter().map(|w| u64::from(w.count_ones())).sum();
            meets.push(meet);
        }
        for j in 0..k {
            for mask in 0..1usize << k {
                if mask >> j & 1 == 0 {
                    cells[mask] -= cells[mask | 1 << j];
                }
            }
        }
        cells
    }
}

impl MintermCounter for BitmapCounter {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let cells = self.cells(set);
        self.stats += CountingStats::tables(1, cells.len() as u64);
        cells
    }

    fn n_transactions(&self) -> usize {
        self.n as usize
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

/// Contingency tables recomputed by a [`BitmapCounter`], kept because
/// queries share many answers.
pub struct Tables {
    counter: BitmapCounter,
    tables: HashMap<Itemset, ContingencyTable>,
}

impl Tables {
    pub fn new(db: &TransactionDb) -> Tables {
        Tables {
            counter: BitmapCounter::new(db),
            tables: HashMap::new(),
        }
    }

    pub fn table(&mut self, set: &Itemset) -> &ContingencyTable {
        let counter = &self.counter;
        self.tables
            .entry(set.clone())
            .or_insert_with(|| ContingencyTable::from_counts(set.clone(), counter.cells(set)))
    }
}

/// Every answer satisfies its constraints, has a CT-supported table that
/// passes the measure's verdict, and no answer contains another.
pub fn soundness(
    tables: &mut Tables,
    n: usize,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    answers: &[Itemset],
) -> Result<(), String> {
    let ctx = query.params.measure_context().map_err(|e| e.to_string())?;
    let s = query.params.support_abs(n);
    for set in answers {
        if !query.constraints.satisfied(set, attrs) {
            return Err(format!("answer {set} violates its constraints"));
        }
        let table = tables.table(set);
        if !table.is_ct_supported(s, query.params.ct_fraction) {
            return Err(format!("answer {set} is not CT-supported"));
        }
        if !ctx.verdict(table) {
            return Err(format!("answer {set} fails the {} verdict", ctx.measure()));
        }
    }
    let all: HashSet<&Itemset> = answers.iter().collect();
    for b in answers {
        if let Some(a) = b.proper_subsets().iter().find(|a| all.contains(a)) {
            return Err(format!("answer {b} contains answer {a}"));
        }
    }
    Ok(())
}
