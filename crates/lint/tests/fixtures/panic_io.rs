//! pretend: src/bin/rogue.rs
//!
//! Seeded violations for `no-panic-in-io-paths`: every panic shape the
//! rule knows — `.unwrap()`, `.expect()`, `panic!`, the release-build
//! assertions, and slice indexing — plus the shapes that must NOT fire:
//! patterns, macros, debug assertions, test code, and the doc-comment
//! `.unwrap()` that the old grep would have flagged.

fn rogue(args: &[String], bytes: &[u8]) -> u8 {
    // VIOLATION: index can panic on an empty argv.
    let _first = &args[0];
    // VIOLATION: unwrap in an I/O path.
    let parsed: u32 = args[1].parse().unwrap();
    // VIOLATION: expect is unwrap with an apology.
    let flag = args.first().expect("checked above");
    let _ = (parsed, flag);
    if bytes.is_empty() {
        // VIOLATION: I/O paths fail as values, not panics.
        panic!("empty input");
    }
    // VIOLATION: assertions stay in release builds and panic there.
    assert!(bytes.len() < 64, "oversized input");
    // VIOLATION: so do their comparing forms.
    assert_eq!(bytes.len() % 2, 0);
    assert_ne!(parsed, 0);
    bytes[0]
}

/// Fine: `.unwrap()` in a doc comment is documentation, not code.
fn fine_shapes(pair: [u8; 2]) -> u8 {
    // Slice patterns and array literals are not index expressions.
    let [a, b] = pair;
    let table = [a, b, 0, 1];
    let v = vec![0u8; 4];
    // Debug assertions compile out of release builds.
    debug_assert!(v.len() == 4);
    debug_assert_eq!(table.len(), 4);
    debug_assert_ne!(v.len(), 0);
    a + b + table.len() as u8 + v.len() as u8
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Result<u8, ()> = Ok(1);
        assert_eq!(v.unwrap(), 1);
    }
}
