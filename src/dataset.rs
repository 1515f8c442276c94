//! On-disk text formats for basket databases and attribute tables.
//!
//! Deliberately trivial, line-oriented, and diff-friendly — the kind of
//! format you can produce from a SQL export with one `awk` line:
//!
//! ```text
//! # ccs basket database
//! items 1000
//! 0 17 23 999
//! 4 17
//!
//! ```
//!
//! (one basket per line, space-separated item ids; blank lines are empty
//! baskets; `#` lines are comments). Attribute tables:
//!
//! ```text
//! # ccs attributes
//! items 4
//! numeric price 1 2.5 3 9
//! categorical type soda soda beer dairy
//! ```
//!
//! Used by the `ccs` CLI binary; also convenient for test fixtures.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::constraints::AttributeTable;
use crate::itemset::{Item, TransactionDb, TransactionDbBuilder};

/// A parse error for the dataset text formats.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally malformed input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "i/o error: {e}"),
            DatasetError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        DatasetError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> DatasetError {
    DatasetError::Parse {
        line,
        message: message.into(),
    }
}

/// The largest item universe a file's `items <N>` header may declare
/// (2^24 items). The database and every counter allocate per declared
/// item, so a larger header is a parse error before anything is
/// allocated.
pub const MAX_ITEMS: u32 = 1 << 24;

/// Parses the universe size that follows `items` on header line `lineno`.
fn parse_universe<'a>(
    lineno: usize,
    mut parts: impl Iterator<Item = &'a str>,
) -> Result<u32, DatasetError> {
    let n: u32 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(lineno, "expected a number after 'items'"))?;
    if n > MAX_ITEMS {
        return Err(parse_err(
            lineno,
            format!("'items {n}' exceeds the limit of {MAX_ITEMS} items"),
        ));
    }
    Ok(n)
}

/// Writes a database in the basket text format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_db<W: Write>(db: &TransactionDb, out: &mut W) -> io::Result<()> {
    writeln!(out, "# ccs basket database")?;
    writeln!(out, "items {}", db.n_items())?;
    for t in db.transactions() {
        let mut first = true;
        for item in t {
            if !first {
                write!(out, " ")?;
            }
            write!(out, "{}", item.id())?;
            first = false;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Reads a database in the basket text format.
///
/// The input is read into one buffer, which is parsed in a single pass
/// straight into the database's flat store and dropped on return. Basket
/// lines of ASCII digits and ASCII whitespace take a byte-level fast
/// path; any other line (comments, `+` signs, non-ASCII text, anything
/// malformed) is parsed as text, with the format's full rules and error
/// messages.
///
/// # Errors
///
/// Returns [`DatasetError`] on I/O failures or malformed input
/// (missing/duplicate `items` header, a universe over [`MAX_ITEMS`],
/// non-numeric ids, ids outside the declared universe). A line that is not valid UTF-8 is an
/// [`io::ErrorKind::InvalidData`] error, unless an earlier line failed
/// first; a failing reader fails before any line is parsed.
pub fn read_db<R: Read>(mut input: R) -> Result<TransactionDb, DatasetError> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    let mut rest = bytes.as_slice();
    let mut lineno = 0;
    let n: u32 = loop {
        let Some(line) = next_line(&mut rest) else {
            return Err(parse_err(0, "missing 'items <N>' header"));
        };
        lineno += 1;
        let trimmed = utf8(line)?.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        if parts.next() != Some("items") {
            return Err(parse_err(lineno, "expected 'items <N>' header"));
        }
        break parse_universe(lineno, parts)?;
    };
    let mut db = TransactionDbBuilder::new(n);
    while !rest.is_empty() {
        lineno += 1;
        if let Some(tail) = scan_basket(rest, n, &mut db) {
            rest = tail;
            db.end_basket();
        } else if let Some(line) = next_line(&mut rest) {
            if parse_basket(lineno, line, n, &mut db)? {
                db.end_basket();
            }
        }
    }
    Ok(db.build())
}

/// Splits the first line, with its newline if it has one, off `rest`.
/// Like [`BufRead::lines`], a final newline opens no further line.
fn next_line<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let line = rest.split_inclusive(|&b| b == b'\n').next()?;
    *rest = rest.get(line.len()..).unwrap_or_default();
    Some(line)
}

/// The fast path for the basket line at the front of `bytes`: ids of
/// ASCII digits, separated by ASCII whitespace, each inside `0..n`. Pushes
/// the ids onto the open basket and returns what follows the line. Any
/// other byte, or an id outside the universe, discards what was pushed
/// and returns `None`, leaving the line to [`parse_basket`].
fn scan_basket<'a>(bytes: &'a [u8], n: u32, db: &mut TransactionDbBuilder) -> Option<&'a [u8]> {
    // `id < n <= u32::MAX` holds before each digit, so `id * 10 + 9`
    // fits a `u64` and every pushed id fits a `u32`.
    let mut id: Option<u64> = None;
    let mut iter = bytes.iter();
    loop {
        match iter.next() {
            Some(&d @ b'0'..=b'9') => {
                let v = id.unwrap_or(0) * 10 + u64::from(d - b'0');
                if v >= u64::from(n) {
                    break;
                }
                id = Some(v);
            }
            // The ASCII characters `char::is_whitespace` accepts, bar `\n`.
            Some(b' ' | b'\t' | b'\r' | 0x0B | 0x0C) => {
                if let Some(v) = id.take() {
                    db.push(Item::new(v as u32));
                }
            }
            None | Some(b'\n') => {
                if let Some(v) = id {
                    db.push(Item::new(v as u32));
                }
                return Some(iter.as_slice());
            }
            Some(_) => break,
        }
    }
    db.discard_basket();
    None
}

/// Parses one basket line as text: Unicode whitespace separates ids, an
/// id is anything `u32` parses (a `+` sign, leading zeros), and a line
/// whose first non-blank character is `#` is a comment. Pushes the ids
/// onto the open basket and returns `true`, or `false` for a comment.
fn parse_basket(
    lineno: usize,
    line: &[u8],
    n: u32,
    db: &mut TransactionDbBuilder,
) -> Result<bool, DatasetError> {
    let trimmed = utf8(line)?.trim();
    if trimmed.starts_with('#') {
        return Ok(false);
    }
    for tok in trimmed.split_whitespace() {
        let id: u32 = tok
            .parse()
            .map_err(|_| parse_err(lineno, format!("bad item id '{tok}'")))?;
        if id >= n {
            return Err(parse_err(
                lineno,
                format!("item {id} outside universe 0..{n}"),
            ));
        }
        db.push(Item::new(id));
    }
    Ok(true)
}

/// `line` as text, failing as reading a line into a `String` does.
fn utf8(line: &[u8]) -> Result<&str, DatasetError> {
    std::str::from_utf8(line).map_err(|_| {
        DatasetError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Writes an attribute table in the attributes text format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_attrs<W: Write>(attrs: &AttributeTable, out: &mut W) -> io::Result<()> {
    writeln!(out, "# ccs attributes")?;
    writeln!(out, "items {}", attrs.n_items())?;
    for name in attrs.numeric_names() {
        write!(out, "numeric {name}")?;
        // The name comes from the table's own listing — lookup is
        // infallible.
        #[allow(clippy::expect_used)]
        // ccs-lint: allow(no-panic-in-io-paths, reason = "name comes from the table's own listing; lookup is infallible")
        for v in attrs.numeric(name).expect("listed name") {
            write!(out, " {v}")?;
        }
        writeln!(out)?;
    }
    for name in attrs.categorical_names() {
        #[allow(clippy::expect_used)]
        // ccs-lint: allow(no-panic-in-io-paths, reason = "name comes from the table's own listing; lookup is infallible")
        let col = attrs.categorical(name).expect("listed name");
        write!(out, "categorical {name}")?;
        for &id in col.values() {
            write!(out, " {}", col.label(id))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Reads an attribute table in the attributes text format.
///
/// # Errors
///
/// Returns [`DatasetError`] on I/O failures or malformed input (missing
/// header, a universe over [`MAX_ITEMS`], wrong value counts,
/// non-numeric values in `numeric` columns).
pub fn read_attrs<R: Read>(input: R) -> Result<AttributeTable, DatasetError> {
    let reader = BufReader::new(input);
    let mut table: Option<AttributeTable> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let Some(keyword) = parts.next() else {
            continue; // unreachable: blank lines were skipped above
        };
        match (keyword, &mut table) {
            ("items", None) => table = Some(AttributeTable::new(parse_universe(lineno, parts)?)),
            ("items", Some(_)) => return Err(parse_err(lineno, "duplicate 'items' header")),
            (kw @ ("numeric" | "categorical"), Some(t)) => {
                let name = parts
                    .next()
                    .ok_or_else(|| parse_err(lineno, format!("'{kw}' needs a column name")))?;
                let values: Vec<&str> = parts.collect();
                if values.len() != t.n_items() as usize {
                    return Err(parse_err(
                        lineno,
                        format!(
                            "column '{name}' has {} values, need {}",
                            values.len(),
                            t.n_items()
                        ),
                    ));
                }
                if kw == "numeric" {
                    let parsed: Result<Vec<f64>, _> =
                        values.iter().map(|v| v.parse::<f64>()).collect();
                    let parsed = parsed
                        .map_err(|_| parse_err(lineno, format!("non-numeric value in '{name}'")))?;
                    t.add_numeric(name, parsed);
                } else {
                    t.add_categorical(name, &values);
                }
            }
            (_, None) => return Err(parse_err(lineno, "expected 'items <N>' header first")),
            (other, _) => {
                return Err(parse_err(lineno, format!("unknown keyword '{other}'")));
            }
        }
    }
    table.ok_or_else(|| parse_err(0, "missing 'items <N>' header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The line-by-line basket parser `read_db` replaced, kept as the
    /// reference its output and errors are checked against.
    fn reference_read_db<R: Read>(input: R) -> Result<TransactionDb, DatasetError> {
        let reader = BufReader::new(input);
        let mut n_items: Option<u32> = None;
        let mut txns: Vec<Vec<u32>> = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let lineno = idx + 1;
            let line = line?;
            let trimmed = line.trim();
            if trimmed.starts_with('#') {
                continue;
            }
            let n = match n_items {
                Some(n) => n,
                None => {
                    if trimmed.is_empty() {
                        continue;
                    }
                    let mut parts = trimmed.split_whitespace();
                    if parts.next() != Some("items") {
                        return Err(parse_err(lineno, "expected 'items <N>' header"));
                    }
                    let n: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| parse_err(lineno, "expected a number after 'items'"))?;
                    // The one check added since `read_db` replaced this
                    // parser: the bound on the declared universe.
                    if n > MAX_ITEMS {
                        return Err(parse_err(
                            lineno,
                            format!("'items {n}' exceeds the limit of {MAX_ITEMS} items"),
                        ));
                    }
                    n_items = Some(n);
                    continue;
                }
            };
            let mut basket = Vec::new();
            for tok in trimmed.split_whitespace() {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("bad item id '{tok}'")))?;
                if id >= n {
                    return Err(parse_err(
                        lineno,
                        format!("item {id} outside universe 0..{n}"),
                    ));
                }
                basket.push(id);
            }
            txns.push(basket);
        }
        let n = n_items.ok_or_else(|| parse_err(0, "missing 'items <N>' header"))?;
        Ok(TransactionDb::from_ids(n, txns))
    }

    /// Asserts `read_db` and the reference agree on `input`: the same
    /// database, or the same error variant, line and message.
    fn assert_matches_reference(input: &[u8]) {
        match (read_db(input), reference_read_db(input)) {
            (Ok(got), Ok(want)) => assert_eq!(got, want),
            (
                Err(DatasetError::Parse { line, message }),
                Err(DatasetError::Parse {
                    line: want_line,
                    message: want_message,
                }),
            ) => assert_eq!((line, message), (want_line, want_message)),
            (Err(DatasetError::Io(got)), Err(DatasetError::Io(want))) => {
                assert_eq!(
                    (got.kind(), got.to_string()),
                    (want.kind(), want.to_string())
                );
            }
            (got, want) => panic!("read_db gave {got:?}, the reference {want:?}"),
        }
    }

    /// Headers: the first four declare a universe, the rest are missing
    /// or malformed.
    const HEADERS: &[&[u8]] = &[
        b"items 6\n",
        b"items +6\r\n",
        b"# c\n\n  \nitems 006\n",
        "\u{a0}items\t300 extra\n".as_bytes(),
        b"items 4294967296\n",
        b"items 16777217\n",
        b"item 6\n",
        b"items\n",
        b"items 0\n",
        b"# no header\n",
        b"",
    ];
    /// Ids inside `0..6`, in every spelling `u32` parses.
    const IDS: &[&[u8]] = &[b"0", b"1", b"2", b"3", b"5", b"+5", b"004", b"00", b"0001"];
    /// Tokens that are not ids of a 6-item universe, or not ids at all.
    const BAD: &[&[u8]] = &[
        b"6",
        b"007",
        b"299",
        b"4294967295",
        b"4294967296",
        b"99999999999999999999",
        // Never a bare `items`: on a header-less file it would start the
        // header, and a large id after it would declare a universe too
        // big to allocate supports for.
        b"items 6",
        b"#",
        b"-1",
        b"+",
        b"x",
        b"\xff",
        b"\xc3",
        "é".as_bytes(),
        b"\x1c",
    ];
    /// Separators; the plain space is drawn about half the time.
    const SEPS: &[&[u8]] = &[
        b"\t",
        b"  ",
        b"\x0b",
        b"\x0c",
        b"\r",
        "\u{a0}".as_bytes(),
        "\u{85}".as_bytes(),
        "\u{3000}".as_bytes(),
    ];
    const ENDS: &[&[u8]] = &[b"\n", b"\r\n"];

    fn pick(table: &[&'static [u8]], i: usize) -> &'static [u8] {
        table.get(i).copied().unwrap_or_default()
    }

    /// Basket files built from tokens that exercise every rule of the
    /// format. Most lines are valid baskets, so about half the files
    /// parse; one line in sixteen is a comment, one in sixteen mixes in
    /// bad tokens, random raw bytes are spliced into one line about one
    /// time in eight, and the final newline is sometimes missing.
    fn basket_file() -> impl Strategy<Value = Vec<u8>> {
        let token = (0..IDS.len(), 0..BAD.len() * 4, 0..SEPS.len() * 2);
        let line = (0..16u8, vec(token, 0..7), 0..ENDS.len());
        (
            0..HEADERS.len() + 12,
            vec(line, 0..12),
            vec(any::<u8>(), 0..16),
            0..96usize,
            any::<bool>(),
        )
            .prop_map(|(header, lines, raw, raw_at, final_newline)| {
                // Most draws land on the plain `items 6`.
                let mut out = pick(HEADERS, header.saturating_sub(12)).to_vec();
                let last = lines.len().saturating_sub(1);
                for (at, (kind, tokens, end)) in lines.into_iter().enumerate() {
                    if kind == 0 {
                        out.extend_from_slice(b"  # comment");
                    }
                    for (id, bad, sep) in tokens {
                        let bad = if kind == 1 { pick(BAD, bad) } else { &[] };
                        out.extend_from_slice(if bad.is_empty() { pick(IDS, id) } else { bad });
                        let sep = pick(SEPS, sep);
                        out.extend_from_slice(if sep.is_empty() { b" " } else { sep });
                    }
                    if at == raw_at {
                        out.extend_from_slice(&raw);
                    }
                    if at < last || final_newline {
                        out.extend_from_slice(pick(ENDS, end));
                    }
                }
                out
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        #[test]
        fn read_db_matches_the_reference_parser(input in basket_file()) {
            assert_matches_reference(&input);
        }

        #[test]
        fn read_db_matches_the_reference_on_raw_bytes(
            header in 0..HEADERS.len(),
            raw in vec(any::<u8>(), 0..64),
        ) {
            let mut input = HEADERS.get(header).copied().unwrap_or_default().to_vec();
            input.extend_from_slice(&raw);
            assert_matches_reference(&input);
        }
    }

    #[test]
    fn db_roundtrip() {
        let db = TransactionDb::from_ids(5, vec![vec![0, 2, 4], vec![], vec![1]]);
        let mut buf = Vec::new();
        write_db(&db, &mut buf).unwrap();
        let back = read_db(buf.as_slice()).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn db_rejects_out_of_universe_item() {
        let err = read_db("items 3\n0 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn db_rejects_missing_header() {
        assert!(read_db("0 1\n".as_bytes()).is_err());
        assert!(read_db("".as_bytes()).is_err());
    }

    #[test]
    fn db_skips_comments_and_leading_blanks() {
        let db = read_db("# hello\n\nitems 2\n0 1\n# mid comment\n1\n".as_bytes()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.n_items(), 2);
    }

    /// `read_db`'s outcome as plain data: the universe and baskets, or
    /// the error as displayed (`line N: …` or `i/o error: …`).
    type Outcome = Result<(u32, Vec<Vec<u32>>), String>;

    fn outcome(input: &[u8]) -> Outcome {
        read_db(input)
            .map(|db| {
                let baskets = db
                    .transactions()
                    .map(|t| t.iter().map(|i| i.id()).collect())
                    .collect();
                (db.n_items(), baskets)
            })
            .map_err(|e| e.to_string())
    }

    fn ok(n: u32, baskets: &[&[u32]]) -> Outcome {
        Ok((n, baskets.iter().map(|b| b.to_vec()).collect()))
    }

    fn err(message: &str) -> Outcome {
        Err(message.to_owned())
    }

    #[test]
    fn db_edge_inputs_parse_as_pinned() {
        const NOT_UTF8: &str = "i/o error: stream did not contain valid UTF-8";
        let cases: Vec<(&[u8], Outcome)> = vec![
            // Ids and the header count parse as `u32`: a `+` sign and
            // leading zeros are accepted, anything past `u32::MAX` is not.
            (b"items 10\n+5 3\n", ok(10, &[&[3, 5]])),
            (b"items +10\n9\n", ok(10, &[&[9]])),
            (b"items 010\n007 0 00\n", ok(10, &[&[0, 7]])),
            (
                b"items 10\n4294967296\n",
                err("line 2: bad item id '4294967296'"),
            ),
            (
                b"items 10\n4294967295\n",
                err("line 2: item 4294967295 outside universe 0..10"),
            ),
            (
                b"items 10\n00000000010\n",
                err("line 2: item 10 outside universe 0..10"),
            ),
            (
                b"items 4294967296\n",
                err("line 1: expected a number after 'items'"),
            ),
            (b"items 3\n1 -2\n", err("line 2: bad item id '-2'")),
            (b"items 3\n1 2x\n", err("line 2: bad item id '2x'")),
            (b"items 3\n+\n", err("line 2: bad item id '+'")),
            // Line endings and whitespace: CRLF, tabs, vertical tab, form
            // feed and non-ASCII Unicode whitespace all separate ids.
            (b"items 3\r\n0 1\r\n\r\n2\r\n", ok(3, &[&[0, 1], &[], &[2]])),
            (b"items 3\n\t0\t1\x0b2\x0c\r\n", ok(3, &[&[0, 1, 2]])),
            (b"items 3\n0\r1\n", ok(3, &[&[0, 1]])),
            (
                "items 3\n0\u{a0}1\u{3000}2\u{85}\n".as_bytes(),
                ok(3, &[&[0, 1, 2]]),
            ),
            ("\u{a0}items\u{a0}3\n1\n".as_bytes(), ok(3, &[&[1]])),
            // U+001C is not whitespace, and `é` is not a digit.
            (b"items 3\n\x1c1\n", err("line 2: bad item id '\x1c1'")),
            ("items 3\n1é\n".as_bytes(), err("line 2: bad item id '1é'")),
            // Invalid UTF-8 fails the line it is on, comments included,
            // unless an earlier line already failed.
            (b"items 3\n0 \xff\n", err(NOT_UTF8)),
            (b"items 3\n# \xc3\n", err(NOT_UTF8)),
            (b"\xff\nitems 3\n", err(NOT_UTF8)),
            (
                b"items 3\n7\n\xff\n",
                err("line 2: item 7 outside universe 0..3"),
            ),
            // Baskets are sorted and deduplicated.
            (b"items 5\n3 1 3 0\n4 4\n", ok(5, &[&[0, 1, 3], &[4]])),
            // Blank and whitespace-only lines after the header are empty
            // baskets; before it they are skipped.
            (
                b"\n  \nitems 2\n0\n\n   \n1\n\n",
                ok(2, &[&[0], &[], &[], &[1], &[]]),
            ),
            // Comments anywhere, but only as a whole line.
            (
                b"# c\n  # c2\nitems 2\n  # mid\n0 1\n#\n",
                ok(2, &[&[0, 1]]),
            ),
            (b"items 2\n0 # trailing\n", err("line 2: bad item id '#'")),
            // A second header is a bad basket.
            (b"items 2\n0\nitems 2\n", err("line 3: bad item id 'items'")),
            // The final newline is optional.
            (b"items 2\n0 1", ok(2, &[&[0, 1]])),
            (b"items 2\n0 1\r", ok(2, &[&[0, 1]])),
            (b"items 2", ok(2, &[])),
            // The header: extra tokens are ignored; the count is required.
            (b"items 3 extra\n1\n", ok(3, &[&[1]])),
            (b"items\n", err("line 1: expected a number after 'items'")),
            (
                b"items -1\n",
                err("line 1: expected a number after 'items'"),
            ),
            (b"item 3\n", err("line 1: expected 'items <N>' header")),
            (b"0 1\n", err("line 1: expected 'items <N>' header")),
            (b"items 0\n\n", ok(0, &[&[]])),
            (b"items 0\n0\n", err("line 2: item 0 outside universe 0..0")),
            (b"", err("line 0: missing 'items <N>' header")),
            (b"# only\n\n", err("line 0: missing 'items <N>' header")),
        ];
        for (input, expected) in cases {
            assert_eq!(
                outcome(input),
                expected,
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn db_invalid_utf8_is_an_io_error() {
        let err = read_db(&b"items 3\n0 \xff\n"[..]).unwrap_err();
        assert!(
            matches!(&err, DatasetError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err:?}"
        );
    }

    #[test]
    fn attrs_roundtrip() {
        let mut attrs = AttributeTable::new(3);
        attrs.add_numeric("price", vec![1.5, 2.0, 3.25]);
        attrs.add_categorical("type", &["soda", "beer", "soda"]);
        let mut buf = Vec::new();
        write_attrs(&attrs, &mut buf).unwrap();
        let back = read_attrs(buf.as_slice()).unwrap();
        assert_eq!(attrs, back);
    }

    #[test]
    fn attrs_error_cases() {
        assert!(read_attrs("numeric price 1 2\n".as_bytes()).is_err()); // no header
        assert!(read_attrs("items 2\nnumeric price 1\n".as_bytes()).is_err()); // count
        assert!(read_attrs("items 2\nnumeric price a b\n".as_bytes()).is_err()); // non-numeric
        assert!(read_attrs("items 2\nitems 2\n".as_bytes()).is_err()); // dup header
        assert!(read_attrs("items 2\nboolean x 0 1\n".as_bytes()).is_err()); // keyword
    }

    #[test]
    fn universe_over_the_limit_is_a_parse_error() {
        let header = |n: u32| format!("items {n}");
        assert_eq!(
            parse_universe(1, header(MAX_ITEMS).split_whitespace().skip(1)).unwrap(),
            MAX_ITEMS
        );
        for n in [MAX_ITEMS + 1, u32::MAX] {
            let want = format!("line 3: 'items {n}' exceeds the limit of {MAX_ITEMS} items");
            let file = format!("# c\n\n{}\n0\n", header(n));
            let err = read_db(file.as_bytes()).unwrap_err();
            assert!(matches!(err, DatasetError::Parse { line: 3, .. }));
            assert_eq!(err.to_string(), want);
            let err = read_attrs(file.as_bytes()).unwrap_err();
            assert!(matches!(err, DatasetError::Parse { line: 3, .. }));
            assert_eq!(err.to_string(), want);
        }
    }
}
