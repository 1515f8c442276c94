//! A host-speed probe: a fixed piece of work, in the benchmark's own code
//! only, timed between the operations of a run.
//!
//! A shared virtual machine can run a whole benchmark run faster or
//! slower than the next (other guests on the same cores and caches), and
//! that moves every time a run measures, CPU time included, over spans
//! from milliseconds to whole runs. The probe runs between every two
//! timed steps, and its times on either side of a step gauge the host's
//! speed during it. It runs no library code, so a change to the library
//! cannot move it.
//!
//! Its four parts take about the same time each, so that it responds to
//! the host as the mining code does, which is neither purely bound by
//! the core nor by memory: bitmap intersection over a matrix that fits
//! in cache (as tid-set counting), hashing, sorting and number printing
//! and parsing (as candidate generation and reading a dataset), and
//! random walks over 1 MiB and over 16 MiB (as tree and hash-table
//! lookups), the latter in the last-level cache other guests share. A
//! probe of the first two kinds alone moved about twice as much as the
//! mining code when the host sped up.

use std::collections::HashMap;
use std::hint::black_box;

use crate::gen::SplitMix64;

/// Rows of the bit matrix, and 64-bit words per row (32 768 bits).
const ROWS: usize = 64;
const ROW_WORDS: usize = 512;
/// AND-and-count passes over three rows, per run.
const TRIPLES: usize = 720;
/// Keys hashed, sorted and printed-and-parsed, per run.
const KEYS: usize = 1536;
/// Lengths of the two random cycles walked, and steps per run on each.
const NEAR_LEN: usize = 256 << 10;
const NEAR_STEPS: usize = 5000;
const FAR_LEN: usize = 4 << 20;
const FAR_STEPS: usize = 1500;

/// The probe's inputs, drawn once from a fixed seed.
pub struct Probe {
    bits: Vec<u64>,
    triples: Vec<[usize; 3]>,
    keys: Vec<u64>,
    near: Vec<u32>,
    far: Vec<u32>,
}

/// A random cyclic permutation of `0..n` (Sattolo's algorithm): walking
/// `next = p[next]` visits every slot before it returns.
fn random_cycle(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64) as usize;
        p.swap(i, j);
    }
    p
}

impl Probe {
    pub fn new() -> Probe {
        let mut rng = SplitMix64::new(0x5EED_5EED_5EED);
        let bits = (0..ROWS * ROW_WORDS).map(|_| rng.next_u64()).collect();
        let triples = (0..TRIPLES)
            .map(|_| [(); 3].map(|()| rng.below(ROWS as u64) as usize))
            .collect();
        let keys = (0..KEYS).map(|_| rng.next_u64() >> 20).collect();
        let near = random_cycle(NEAR_LEN, &mut rng);
        let far = random_cycle(FAR_LEN, &mut rng);
        Probe {
            bits,
            triples,
            keys,
            near,
            far,
        }
    }

    /// The memory the probe keeps resident for as long as it lives.
    pub fn resident_bytes(&self) -> usize {
        self.bits.capacity() * 8
            + self.triples.capacity() * std::mem::size_of::<[usize; 3]>()
            + self.keys.capacity() * 8
            + (self.near.capacity() + self.far.capacity()) * 4
    }

    /// Runs the work once. Returns a checksum so that none of it is
    /// skipped.
    pub fn run(&self) -> u64 {
        let row = |r: usize| &self.bits[r * ROW_WORDS..(r + 1) * ROW_WORDS];
        let mut sum = 0u64;
        for &[a, b, c] in &self.triples {
            let (a, b, c) = (row(a), row(b), row(c));
            for i in 0..ROW_WORDS {
                sum += u64::from((a[i] & b[i] & c[i]).count_ones());
            }
        }
        let mut seen: HashMap<u64, usize> = HashMap::with_capacity(KEYS);
        for (i, &k) in self.keys.iter().enumerate() {
            seen.insert(k, i);
        }
        sum += self.keys.iter().filter_map(|k| seen.get(&(k ^ 1))).count() as u64;
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        sum += sorted[KEYS / 2];
        let text: String = self.keys.iter().map(|k| format!("{k} ")).collect();
        sum += text
            .split_ascii_whitespace()
            .filter_map(|t| t.parse::<u64>().ok())
            .fold(0u64, u64::wrapping_add);
        for (cycle, steps) in [(&self.near, NEAR_STEPS), (&self.far, FAR_STEPS)] {
            let mut at = 0u32;
            for _ in 0..steps {
                at = cycle[at as usize];
            }
            sum += u64::from(at);
        }
        black_box(sum)
    }
}
