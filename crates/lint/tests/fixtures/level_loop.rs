//! pretend: crates/core/src/sweep.rs
//!
//! Seeded violations for `level-loop-outside-kernel`, plus the audit
//! cases where the old CI grep got it wrong: grep flagged `while level`
//! in comments and strings (false positives it dodged only via its
//! `grep -v` comment hack, which never matched `-rn` output), and missed
//! loops in files its path glob skipped.

fn rogue_sweep(max_level: usize) {
    let mut level = 1;
    // VIOLATION: the level loop belongs to the kernel.
    while level <= max_level {
        level += 1;
    }
}

fn rogue_iter(levels: &[Vec<u32>]) {
    // VIOLATION: `for level in …` is the level loop spelled differently.
    for level in levels {
        drop(level);
    }
}

fn rogue_drain(mut cands: Vec<u32>) {
    // VIOLATION: draining the candidate vector is the level loop too.
    while !cands.is_empty() {
        cands.pop();
    }
}

fn fine_one_level(cands: &[u32]) -> u32 {
    let mut sum = 0;
    // `for` over one level's candidates is fine anywhere.
    for c in cands {
        sum += c;
    }
    sum
}

fn fine_doc_and_strings() {
    // while level <= max_level — a comment, not a loop (grep's false positive).
    let _doc = "for level in 0..max_level";
    let _raw = r"while level <= max_level { step(); }";
}

fn fine_within_one_level(level: &[u32]) -> u32 {
    let mut sum = 0;
    // Iterating one level's *contents* is fine anywhere.
    for set in level {
        sum += set;
    }
    sum
}

#[cfg(test)]
mod tests {
    #[test]
    fn simulating_levels_in_tests_is_fine() {
        for level in 0..3 {
            assert!(level < 3);
        }
    }
}
