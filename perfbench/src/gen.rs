//! Seeded inputs for each workload: the dataset and attribute files as
//! bytes, the fixed query mix the closed loop cycles through, and the
//! warm-up query. The library under test sees only these bytes and
//! query texts.

use ccs::constraints::selectivity::threshold_for_le_selectivity;
use ccs::dataset::{write_attrs, write_db};
use ccs::prelude::*;

/// The workloads, as named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuestSession,
    DenseMeasures,
    ColdResume,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "quest_session" => Some(Workload::QuestSession),
            "dense_measures" => Some(Workload::DenseMeasures),
            "cold_resume" => Some(Workload::ColdResume),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuestSession => "quest_session",
            Workload::DenseMeasures => "dense_measures",
            Workload::ColdResume => "cold_resume",
        }
    }
}

/// The three operation types; each has its own latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One warm-session BMS++ query.
    ValidMin,
    /// One warm-session BMS** query.
    MinValid,
    /// One cold mine-with-checkpoint then resume job.
    ColdJob,
}

pub const OP_KINDS: [OpKind; 3] = [OpKind::ValidMin, OpKind::MinValid, OpKind::ColdJob];

impl OpKind {
    /// The names of this operation type's p50 and p90 metrics, each as
    /// (CPU time, wall-clock latency).
    pub fn percentile_metrics(self) -> [(&'static str, &'static str); 2] {
        match self {
            OpKind::ValidMin => [
                ("valid_min_cpu_p50_s", "valid_min_p50_s"),
                ("valid_min_cpu_p90_s", "valid_min_p90_s"),
            ],
            OpKind::MinValid => [
                ("min_valid_cpu_p50_s", "min_valid_p50_s"),
                ("min_valid_cpu_p90_s", "min_valid_p90_s"),
            ],
            OpKind::ColdJob => [
                ("cold_job_cpu_p50_s", "cold_job_p50_s"),
                ("cold_job_cpu_p90_s", "cold_job_p90_s"),
            ],
        }
    }
}

/// One distinct query of a workload's mix.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Query text in the `ccs mine --query` language.
    pub text: String,
    pub algorithm: Algorithm,
    pub params: MiningParams,
}

/// One step of the cycled mix: a query run on a dataset's warm session,
/// or a cold job that starts again from that dataset's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    /// Index into [`Inputs::datasets`].
    pub dataset: usize,
    /// Index into [`Inputs::queries`].
    pub query: usize,
}

/// One dataset as the files `ccs mine` reads.
pub struct Dataset {
    pub db_bytes: Vec<u8>,
    pub attrs_bytes: Vec<u8>,
}

/// Datasets per run, each of its own structure. Operations go to each in
/// turn, so a run's percentiles average over several data shapes.
pub const DATASETS: usize = 4;

pub struct Inputs {
    /// `DATASETS` datasets of the workload's kind.
    pub datasets: Vec<Dataset>,
    /// The distinct queries; every dataset runs all of them.
    pub queries: Vec<QuerySpec>,
    /// Index into `queries` of the fixed warm-up query set-up ends with.
    pub warmup: usize,
    /// Indices into `queries` of the warm BMS++ and BMS** queries.
    pub valid_min: Vec<usize>,
    pub min_valid: Vec<usize>,
    /// Candidate selective BMS++ queries for the cold jobs, in order of
    /// preference; the first `COLD_QUERIES` whose guarded run can trip
    /// mid-sweep on a dataset are that dataset's cold jobs.
    pub cold: Vec<usize>,
}

/// SplitMix64: a small, fully specified generator, so inputs depend on
/// the seed alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Quest (method 1) mid-size DB for the warm session: 4096 ≤ n < 65536
/// baskets, so `Auto` picks `vertical-par` on a multi-core host. At the
/// paper's χ² settings the minimal correlated sets, and the BMS** work,
/// grow fast with the item count; 60 items keep one BMS** query near
/// 40 ms on a 2-CPU x86-64 host.
const QUEST_SESSION_BASKETS: usize = 20_000;
const QUEST_SESSION_ITEMS: u32 = 60;
/// Quest log for the cold jobs: n ≥ 65536 routes `Auto` to `sharded`.
const COLD_BASKETS: usize = 80_000;
const COLD_ITEMS: u32 = 40;
/// Dense profile-clustered DB: few items, long baskets (`fp-tree`).
const DENSE_BASKETS: usize = 20_000;
const DENSE_ITEMS: u32 = 32;
const DENSE_PROFILES: usize = 64;
const DENSE_MODULES: usize = 16;
const DENSE_MODULE_LEN: u64 = 5;
/// Share of dense baskets that toggle one of their profile's variants.
const DENSE_VARIANT_RATE: f64 = 0.1;

/// Price selectivities of the warm constraint mix, per measure: `max`
/// and `sum` for BMS++, `min` for BMS**. Each list of a workload's warm
/// queries has 15 entries (5 per measure on the dense workload), so that
/// p50 and p90 fall mid-way through one query's share of the samples
/// (the 8th and 14th of 15) rather than on the edge between two queries
/// of different cost, where a few samples more or less move them.
struct Selectivities {
    max: &'static [f64],
    sum: &'static [f64],
    min: &'static [f64],
}

const QUEST_SELECTIVITIES: Selectivities = Selectivities {
    max: &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    sum: &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    min: &[
        0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9,
    ],
};

const DENSE_SELECTIVITIES: Selectivities = Selectivities {
    max: &[0.3, 0.5, 0.7],
    sum: &[0.4, 0.8],
    min: &[0.3, 0.45, 0.6, 0.75, 0.9],
};

/// Cold-job queries per dataset.
pub const COLD_QUERIES: usize = 4;
/// Selectivities of the cold jobs' candidate queries.
const COLD_SELECTIVITIES: [f64; 6] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Quest parameters with a large pattern pool (50 per item). The mean
/// basket length keeps the density well below the `fp-tree` routing
/// floor of 0.2.
fn quest_params(n_transactions: usize, n_items: u32, avg_len: f64, seed: u64) -> QuestParams {
    QuestParams {
        avg_transaction_len: avg_len,
        n_patterns: 50 * n_items as usize,
        ..QuestParams::small(n_transactions, n_items, seed)
    }
}

/// Each dataset's structure (Quest pattern pool, dense profiles) comes
/// from a fixed stream per dataset index; the run's seed draws the
/// baskets from it. Runs on different seeds thus see fresh samples of the
/// same four shapes, and vary from one another by sampling alone.
fn structure_seed(dataset: usize) -> u64 {
    0x57D0_C70E_0000_0000 | dataset as u64
}

/// `n` baskets drawn without replacement, in random order, from a Quest
/// pool twice that size generated from the dataset's fixed structure.
fn quest_sample(
    n: usize,
    n_items: u32,
    avg_len: f64,
    dataset: usize,
    rng: &mut SplitMix64,
) -> TransactionDb {
    let pool = generate_quest(&quest_params(
        2 * n,
        n_items,
        avg_len,
        structure_seed(dataset),
    ));
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in 0..n {
        let j = i + rng.below((order.len() - i) as u64) as usize;
        order.swap(i, j);
    }
    TransactionDb::new(
        n_items,
        order[..n].iter().map(|&t| pool.transaction(t).to_vec()),
    )
}

/// The workload's datasets for `seed`, as `ccs` dataset files.
pub fn baskets(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x0005_EED0_FCC5);
    (0..DATASETS)
        .map(|d| {
            let db = match workload {
                Workload::QuestSession => {
                    quest_sample(QUEST_SESSION_BASKETS, QUEST_SESSION_ITEMS, 9.0, d, &mut rng)
                }
                Workload::ColdResume => quest_sample(COLD_BASKETS, COLD_ITEMS, 6.0, d, &mut rng),
                Workload::DenseMeasures => dense_db(d, &mut rng),
            };
            let mut bytes = Vec::new();
            write_db(&db, &mut bytes).expect("writing to a Vec cannot fail");
            bytes
        })
        .collect()
}

/// The workload's inputs around its datasets (from [`baskets`]): the
/// attribute file and the query mix.
pub fn inputs(workload: Workload, baskets: Vec<Vec<u8>>) -> Inputs {
    let n_items = match workload {
        Workload::QuestSession => QUEST_SESSION_ITEMS,
        Workload::ColdResume => COLD_ITEMS,
        Workload::DenseMeasures => DENSE_ITEMS,
    };
    // Prices come from a fixed stream, not the seed: Quest items are
    // exchangeable, and a price list that changes with the seed would
    // only add seed-to-seed variance to the constraint thresholds.
    let mut prices = SplitMix64::new(0x0912_1CE5);
    let mut attrs = AttributeTable::new(n_items);
    attrs.add_numeric(
        "price",
        (0..n_items)
            .map(|_| (1 + prices.below(100)) as f64)
            .collect(),
    );

    let measures: &[Measure] = match workload {
        Workload::DenseMeasures => &[Measure::Chi2, Measure::AllConfidence, Measure::Bond],
        Workload::QuestSession | Workload::ColdResume => &[Measure::Chi2],
    };
    let mut queries = Vec::new();
    let mut valid_min = Vec::new();
    let mut min_valid = Vec::new();
    for &measure in measures {
        let params = MiningParams {
            measure,
            confidence: measure.default_threshold(),
            ..MiningParams::paper()
        };
        let sels = match workload {
            Workload::DenseMeasures => &DENSE_SELECTIVITIES,
            Workload::QuestSession | Workload::ColdResume => &QUEST_SELECTIVITIES,
        };
        for (agg, algorithm, sels) in [
            ("max", Algorithm::BmsPlusPlus, sels.max),
            ("sum", Algorithm::BmsPlusPlus, sels.sum),
            ("min", Algorithm::BmsStarStar, sels.min),
        ] {
            for &sel in sels {
                let v = threshold_for_le_selectivity(&attrs, "price", sel);
                match algorithm {
                    Algorithm::BmsStarStar => min_valid.push(queries.len()),
                    _ => valid_min.push(queries.len()),
                }
                queries.push(QuerySpec {
                    text: format!("correlated & ct_supported & {agg}(S.price) <= {v}"),
                    algorithm,
                    params,
                });
            }
        }
    }
    let mut cold = Vec::new();
    for sel in COLD_SELECTIVITIES {
        let v = threshold_for_le_selectivity(&attrs, "price", sel);
        for agg in ["max", "sum"] {
            cold.push(queries.len());
            queries.push(QuerySpec {
                text: format!("correlated & ct_supported & {agg}(S.price) <= {v}"),
                algorithm: Algorithm::BmsPlusPlus,
                params: MiningParams::paper(),
            });
        }
    }

    let mut attrs_bytes = Vec::new();
    write_attrs(&attrs, &mut attrs_bytes).expect("writing to a Vec cannot fail");
    let datasets = baskets
        .into_iter()
        .map(|db_bytes| Dataset {
            db_bytes,
            attrs_bytes: attrs_bytes.clone(),
        })
        .collect();
    Inputs {
        datasets,
        warmup: valid_min[0],
        queries,
        valid_min,
        min_valid,
        cold,
    }
}

/// The closed loop's fixed mix: equal counts of each operation type,
/// interleaved, each query on every dataset in turn, so every percentile
/// gets the same number of samples from every dataset. `cold[d]` lists
/// the cold-job queries of dataset `d`.
pub fn cycle(valid_min: &[usize], min_valid: &[usize], cold: &[Vec<usize>]) -> Vec<Op> {
    let rounds = cold
        .iter()
        .map(Vec::len)
        .chain([valid_min.len(), min_valid.len()])
        .max()
        .unwrap_or(0);
    let mut cycle = Vec::new();
    for round in 0..rounds {
        for (dataset, cold) in cold.iter().enumerate() {
            for (kind, list) in [
                (OpKind::ValidMin, valid_min),
                (OpKind::MinValid, min_valid),
                (OpKind::ColdJob, &cold[..]),
            ] {
                cycle.push(Op {
                    kind,
                    dataset,
                    query: list[round % list.len()],
                });
            }
        }
    }
    cycle
}

/// A dense, low-cardinality DB whose baskets cluster around a few
/// profiles: each profile is the union of three item modules plus two
/// variant items, and each basket is a uniformly drawn profile that now
/// and then toggles one of its variants, so distinct baskets stay few.
fn dense_db(dataset: usize, rng: &mut SplitMix64) -> TransactionDb {
    let n = u64::from(DENSE_ITEMS);
    let mut shape = SplitMix64::new(structure_seed(dataset));
    let modules: Vec<Vec<u32>> = (0..DENSE_MODULES)
        .map(|_| {
            (0..DENSE_MODULE_LEN)
                .map(|_| shape.below(n) as u32)
                .collect()
        })
        .collect();
    let profiles: Vec<(Vec<bool>, [usize; 2])> = (0..DENSE_PROFILES)
        .map(|_| {
            let mut p = vec![false; DENSE_ITEMS as usize];
            for _ in 0..3 {
                for &i in &modules[shape.below(DENSE_MODULES as u64) as usize] {
                    p[i as usize] = true;
                }
            }
            (p, [shape.below(n) as usize, shape.below(n) as usize])
        })
        .collect();
    let baskets: Vec<Vec<u32>> = (0..DENSE_BASKETS)
        .map(|_| {
            let (profile, variants) = &profiles[rng.below(DENSE_PROFILES as u64) as usize];
            let mut basket = profile.clone();
            if rng.unit() < DENSE_VARIANT_RATE {
                let i = variants[rng.below(2) as usize];
                basket[i] = !basket[i];
            }
            (0..DENSE_ITEMS).filter(|&i| basket[i as usize]).collect()
        })
        .collect();
    TransactionDb::from_ids(DENSE_ITEMS, baskets)
}
