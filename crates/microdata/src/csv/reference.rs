//! The `lines()` + `split_line` reader and the per-cell `String` writer
//! that the byte-level [`CsvRecords`](super::CsvRecords) reader and the
//! reused-buffer writer replaced, kept as their test-only specification.
//! The tests below hold the production reader, [`read_csv`](super::read_csv),
//! [`read_csv_auto`](super::read_csv_auto), [`CsvChunks`](super::CsvChunks)
//! and the writers equal to them on seeded random inputs.
//!
//! The one intended difference: a line that is not valid UTF-8 used to
//! fail as `Error::Io("stream did not contain valid UTF-8")`; it now fails
//! as `Error::Csv` naming its file line.

use std::io::{BufRead, BufReader, Lines, Read, Write};

use crate::attribute::{AttributeDef, AttributeKind, AttributeRole};
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Splits one CSV record that is known to be fully contained in `line`.
pub(super) fn split_line(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(c),
            }
        } else {
            match c {
                '"' => {
                    if cur.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(Error::Csv {
                            line: lineno,
                            detail: "quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv {
            line: lineno,
            detail: "unterminated quoted field".into(),
        });
    }
    fields.push(cur);
    Ok(fields)
}

/// Quotes a field if needed for RFC-4180 output.
fn quote_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Formats a numeric cell without trailing `.0` noise for integral values.
pub(super) fn format_number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Writes the data rows of `table` (no header) as CSV.
fn write_rows<W: Write>(table: &Table, w: &mut W) -> Result<()> {
    for r in 0..table.n_rows() {
        let mut fields = Vec::with_capacity(table.n_cols());
        for c in 0..table.n_cols() {
            let attr = table.schema().attribute(c)?;
            let v = table.column(c)?.get(r).expect("in-bounds");
            let s = match v {
                Value::Number(x) => format_number(x),
                Value::Category(code) => attr.dictionary.label(code).map(str::to_owned).ok_or(
                    Error::UnknownCategory {
                        attribute: attr.name.clone(),
                        code,
                    },
                )?,
            };
            fields.push(quote_field(&s));
        }
        writeln!(w, "{}", fields.join(","))?;
    }
    Ok(())
}

/// Writes `table` as CSV (header + one line per record).
fn write_csv<W: Write>(table: &Table, mut w: W) -> Result<()> {
    let header: Vec<String> = table
        .schema()
        .attributes()
        .iter()
        .map(|a| quote_field(&a.name))
        .collect();
    writeln!(w, "{}", header.join(","))?;
    write_rows(table, &mut w)
}

/// Iterator over the raw records of a CSV stream, one `String` per line
/// and per field.
struct CsvRecords<R: Read> {
    lines: std::iter::Enumerate<Lines<BufReader<R>>>,
    header: Vec<String>,
}

impl<R: Read> CsvRecords<R> {
    fn new(reader: R) -> Result<Self> {
        let mut lines = BufReader::new(reader).lines().enumerate();
        let (_, first) = lines.next().ok_or(Error::Csv {
            line: 1,
            detail: "empty input: missing header".into(),
        })?;
        let first = first.map_err(Error::from)?;
        let header = split_line(first.trim_end_matches('\r'), 1)?;
        Ok(CsvRecords { lines, header })
    }
}

impl<R: Read> Iterator for CsvRecords<R> {
    type Item = Result<(usize, Vec<String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (idx, line) = self.lines.next()?;
            let lineno = idx + 1;
            let line = match line {
                Ok(l) => l,
                Err(e) => return Some(Err(e.into())),
            };
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let fields = match split_line(line, lineno) {
                Ok(f) => f,
                Err(e) => return Some(Err(e)),
            };
            if fields.len() != self.header.len() {
                return Some(Err(Error::Csv {
                    line: lineno,
                    detail: format!(
                        "record has {} fields, expected {}",
                        fields.len(),
                        self.header.len()
                    ),
                }));
            }
            return Some(Ok((lineno, fields)));
        }
    }
}

/// Parses one raw record against `schema` (interning unseen categorical
/// labels), reporting any failure at the record's file line.
fn parse_record(schema: &mut Schema, fields: &[String], lineno: usize) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(fields.len());
    for (i, field) in fields.iter().enumerate() {
        let kind = schema.attribute(i)?.kind;
        let v = match kind {
            AttributeKind::Numeric => {
                let x: f64 = field.trim().parse().map_err(|_| Error::Csv {
                    line: lineno,
                    detail: format!("cannot parse {field:?} as a number (column {i})"),
                })?;
                if !x.is_finite() {
                    return Err(Error::Csv {
                        line: lineno,
                        detail: format!("non-finite number {field:?} (column {i})"),
                    });
                }
                Value::Number(x)
            }
            AttributeKind::OrdinalCategorical | AttributeKind::NominalCategorical => {
                let code = schema.attribute_mut(i)?.dictionary.intern(field);
                Value::Category(code)
            }
        };
        row.push(v);
    }
    Ok(row)
}

/// Pushes parsed rows into a table, reporting a failure at its line.
fn table_of(schema: Schema, rows: &[(usize, Vec<Value>)]) -> Result<Table> {
    let mut table = Table::new(schema);
    for (lineno, row) in rows {
        table.push_row(row).map_err(|e| Error::Csv {
            line: *lineno,
            detail: e.to_string(),
        })?;
    }
    Ok(table)
}

/// The chunks [`CsvChunks`](super::CsvChunks) yields, up to and including
/// the first error.
fn chunks<R: Read>(reader: R, schema: Schema, chunk_rows: usize) -> Result<Vec<Result<Table>>> {
    let mut schema = schema;
    let mut records = CsvRecords::new(reader)?;
    super::validate_header(&records.header, &schema)?;
    let mut out = Vec::new();
    loop {
        let mut rows: Vec<(usize, Vec<Value>)> = Vec::new();
        while rows.len() < chunk_rows {
            match records.next() {
                None => break,
                Some(Err(e)) => {
                    out.push(Err(e));
                    return Ok(out);
                }
                Some(Ok((lineno, fields))) => match parse_record(&mut schema, &fields, lineno) {
                    Ok(row) => rows.push((lineno, row)),
                    Err(e) => {
                        out.push(Err(e));
                        return Ok(out);
                    }
                },
            }
        }
        if rows.is_empty() {
            return Ok(out);
        }
        out.push(table_of(schema.clone(), &rows));
    }
}

/// Reads CSV against a known schema.
fn read_csv<R: Read>(reader: R, schema: Schema) -> Result<Table> {
    let mut schema = schema;
    let records = CsvRecords::new(reader)?;
    super::validate_header(&records.header, &schema)?;

    let mut rows: Vec<(usize, Vec<Value>)> = Vec::new();
    for record in records {
        let (lineno, fields) = record?;
        rows.push((lineno, parse_record(&mut schema, &fields, lineno)?));
    }
    table_of(schema, &rows)
}

/// Reads CSV inferring each column's kind from its values.
fn read_csv_auto<R: Read>(reader: R) -> Result<Table> {
    let records = CsvRecords::new(reader)?;
    let names = records.header.clone();
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    for record in records {
        rows.push(record?);
    }

    let n_cols = names.len();
    let mut is_numeric = vec![true; n_cols];
    for (_, row) in &rows {
        for (i, field) in row.iter().enumerate() {
            if is_numeric[i] && field.trim().parse::<f64>().is_err() {
                is_numeric[i] = false;
            }
        }
    }

    let attrs: Vec<AttributeDef> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            if is_numeric[i] {
                AttributeDef::numeric(name.clone(), AttributeRole::NonConfidential)
            } else {
                AttributeDef::nominal(
                    name.clone(),
                    AttributeRole::NonConfidential,
                    Vec::<String>::new(),
                )
            }
        })
        .collect();
    let mut schema = Schema::new(attrs)?;

    let mut table_rows: Vec<(usize, Vec<Value>)> = Vec::with_capacity(rows.len());
    for (lineno, row) in &rows {
        table_rows.push((*lineno, parse_record(&mut schema, row, *lineno)?));
    }
    table_of(schema, &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Dictionary;
    use crate::column::Column;

    /// The message `BufRead::lines` gave for a line that is not UTF-8.
    const OLD_UTF8: &str = "stream did not contain valid UTF-8";

    /// splitmix64: a seeded, dependency-free generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<'a, T: ?Sized>(&mut self, from: &[&'a T]) -> &'a T {
            from[self.below(from.len())]
        }
    }

    /// Text a field can hold: numbers at parse edges, words, multi-byte
    /// UTF-8, quotes, commas and CRs.
    const PIECES: &[&[u8]] = &[
        b"7",
        b"-2.5",
        b"1e3",
        b" 42 ",
        b"0",
        b"-0",
        b"inf",
        b"NaN",
        b"rome",
        b"a b",
        b"",
        "\u{e9}t\u{e9}".as_bytes(),
        "\u{20ac}".as_bytes(),
        "\u{1f600}".as_bytes(),
        b"\r",
        b",",
        b"\"",
        b"\"\"",
    ];

    /// Bytes that break UTF-8: a stray continuation byte, a lead byte
    /// without its continuation, a byte that never occurs in UTF-8, and a
    /// cut-off three-byte sequence.
    const INVALID: &[&[u8]] = &[b"\x80", b"\xc3", b"\xff", b"\xe2\x82"];

    const LINE_ENDS: &[&[u8]] = &[b"\n", b"\n", b"\r\n", b"\r\r\n"];

    /// One field: mostly a clean number, word or quoted field (holding
    /// commas, doubled quotes and multi-byte text, sometimes with text
    /// after the closing quote); one time in eight, noise — stray quotes,
    /// an unterminated quote, non-finite numbers or bytes that are not
    /// UTF-8.
    fn field(rng: &mut Rng, numeric: bool, out: &mut Vec<u8>) {
        if rng.chance(12) {
            match rng.below(4) {
                0 => out.extend_from_slice(rng.pick(INVALID)),
                1 => out.push(b'"'),
                _ => {
                    for _ in 0..1 + rng.below(3) {
                        out.extend_from_slice(rng.pick(PIECES));
                    }
                }
            }
            return;
        }
        if numeric {
            out.extend_from_slice(rng.pick(&PIECES[..6]));
            return;
        }
        if rng.chance(60) {
            out.extend_from_slice(rng.pick(&PIECES[8..11]));
            return;
        }
        out.push(b'"');
        for _ in 0..rng.below(4) {
            match rng.below(4) {
                0 => out.extend_from_slice(b"\"\""),
                1 => out.push(b','),
                _ => out.extend_from_slice(rng.pick(&PIECES[8..15])),
            }
        }
        out.push(b'"');
        if rng.chance(10) {
            out.extend_from_slice(rng.pick(&PIECES[8..10]));
        }
    }

    /// A random CSV under a `names` header whose columns are numeric
    /// where `numeric` says so: lines of mixed endings, blank lines,
    /// ragged records, and an unterminated last line.
    fn random_csv(rng: &mut Rng, names: &[&str], numeric: &[bool]) -> Vec<u8> {
        let mut out = Vec::new();
        if rng.chance(3) {
            field(rng, false, &mut out);
        } else {
            out.extend_from_slice(names.join(",").as_bytes());
        }
        out.extend_from_slice(rng.pick(LINE_ENDS));
        for _ in 0..rng.below(12) {
            if rng.chance(10) {
                out.extend_from_slice(rng.pick(&[&b""[..], b"\r"]));
                out.extend_from_slice(rng.pick(LINE_ENDS));
                continue;
            }
            let mut n = names.len();
            if rng.chance(4) {
                n = 1 + rng.below(names.len() + 1);
            }
            for c in 0..n {
                if c > 0 {
                    out.push(b',');
                }
                field(rng, numeric.get(c).copied().unwrap_or(false), &mut out);
            }
            out.extend_from_slice(rng.pick(LINE_ENDS));
        }
        if rng.chance(30) {
            while let Some(b'\n' | b'\r') = out.last() {
                out.pop();
            }
        }
        out
    }

    /// 1-based number of the first `\n`-terminated line that is not UTF-8.
    fn first_invalid_line(data: &[u8]) -> usize {
        1 + data
            .split(|&b| b == b'\n')
            .position(|line| std::str::from_utf8(line).is_err())
            .expect("an invalid line")
    }

    /// Asserts `new` equals the reference's `old`, apart from the UTF-8
    /// failure, which must now name the first invalid line.
    fn assert_same<T: PartialEq + std::fmt::Debug>(
        old: Result<T>,
        new: Result<T>,
        data: &[u8],
        what: &str,
    ) {
        match (old, new) {
            (Err(Error::Io(msg)), Err(Error::Csv { line, detail })) if msg == OLD_UTF8 => {
                assert_eq!(line, first_invalid_line(data), "{what}: {data:?}");
                assert!(detail.starts_with("line is not valid UTF-8"), "{detail}");
            }
            (old, new) => assert_eq!(old, new, "{what}: {data:?}"),
        }
    }

    /// Records up to and including the first error, the header first.
    type Records = Result<Vec<Result<(usize, Vec<String>)>>>;

    /// Every record the production reader lends out.
    fn new_records(data: &[u8]) -> Records {
        let mut records = super::super::CsvRecords::new(data)?;
        let mut out = vec![Ok((1, records.header().to_vec()))];
        loop {
            match records.next_record() {
                Ok(None) => return Ok(out),
                Ok(Some(r)) => out.push(Ok((r.line(), r.fields().map(str::to_owned).collect()))),
                Err(e) => {
                    out.push(Err(e));
                    return Ok(out);
                }
            }
        }
    }

    /// The same through the reference reader.
    fn old_records(data: &[u8]) -> Records {
        let records = CsvRecords::new(data)?;
        let mut out = vec![Ok((1, records.header.clone()))];
        for record in records {
            let stop = record.is_err();
            out.push(record);
            if stop {
                break;
            }
        }
        Ok(out)
    }

    /// Compares record streams element by element, so a UTF-8 failure
    /// after good records still lines up.
    fn assert_same_records(data: &[u8]) {
        match (old_records(data), new_records(data)) {
            (Ok(old), Ok(new)) => {
                assert_eq!(old.len(), new.len(), "{data:?}");
                for (o, n) in old.into_iter().zip(new) {
                    assert_same(o, n, data, "records");
                }
            }
            (old, new) => assert_same(old, new, data, "header"),
        }
    }

    fn schema(names: &[&str], numeric: &[bool]) -> Schema {
        let attrs = names
            .iter()
            .zip(numeric)
            .map(|(&name, &num)| {
                if num {
                    AttributeDef::numeric(name, AttributeRole::QuasiIdentifier)
                } else {
                    AttributeDef::nominal(name, AttributeRole::NonConfidential, ["rome"])
                }
            })
            .collect();
        Schema::new(attrs).unwrap()
    }

    #[test]
    fn reader_equals_the_reference_on_random_csv() {
        let mut rng = Rng(0x05ee_dc5f);
        let names = ["age", "city", "wage", "note"];
        // read_csv outcomes: records read, CSV errors, UTF-8 failures.
        let (mut rows, mut csv_errors, mut utf8_errors) = (0, 0, 0);
        for case in 0..20_000 {
            let n = 1 + rng.below(names.len());
            let numeric: Vec<bool> = (0..n).map(|_| rng.chance(50)).collect();
            let data = random_csv(&mut rng, &names[..n], &numeric);
            assert_same_records(&data);

            let schema = schema(&names[..n], &numeric);
            let old = read_csv(&data[..], schema.clone());
            match &old {
                Ok(table) => rows += table.n_rows(),
                Err(Error::Io(_)) => utf8_errors += 1,
                Err(_) => csv_errors += 1,
            }
            assert_same(
                old,
                super::super::read_csv(&data[..], schema.clone()),
                &data,
                "read_csv",
            );

            let chunk_rows = 1 + rng.below(4);
            let new: Result<Vec<Result<Table>>> =
                super::super::CsvChunks::new(&data[..], schema.clone(), chunk_rows)
                    .map(|c| c.collect());
            match (chunks(&data[..], schema, chunk_rows), new) {
                (Ok(old), Ok(new)) => {
                    assert_eq!(old.len(), new.len(), "case {case}: {data:?}");
                    for (o, n) in old.into_iter().zip(new) {
                        assert_same(o, n, &data, "CsvChunks");
                    }
                }
                (old, new) => assert_same(old, new, &data, "CsvChunks::new"),
            }

            assert_same(
                read_csv_auto(&data[..]),
                super::super::read_csv_auto(&data[..]),
                &data,
                "read_csv_auto",
            );
        }
        // The generator reaches every outcome often.
        assert!(
            rows > 20_000 && csv_errors > 2_000 && utf8_errors > 1_000,
            "{rows} rows, {csv_errors} CSV errors, {utf8_errors} UTF-8 errors"
        );
    }

    #[test]
    fn reader_equals_the_reference_on_edge_cases() {
        for data in [
            &b""[..],
            b"\n",
            b"\r\n",
            b"a",
            b"a\n\n\n",
            b"a,b\r\r\n1,2\r",
            b"a\n\"\"\n\"\"x\n\"x\"y\n",
            b"a\n\"\"\"\n",
            b"a\n\"x\"\"\n",
            b"a\nx\ry\n",
            b"a\n\"q\nr\"\n",
            b"a,b\n1,\xff\n\x80\n",
            b"\xff\n",
            b"a\n1\n\xc3",
            b"a,b\n1,2\ninf,nan\n",
            b"a,b\n1,inf\nnan,2\n",
            b"a,b\nx,inf\nnan,2\n",
        ] {
            assert_same_records(data);
            assert_same(
                read_csv_auto(data),
                super::super::read_csv_auto(data),
                data,
                "read_csv_auto",
            );
        }
    }

    /// Numbers at the writer's formatting edges.
    const NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1e15 - 1.0,
        1e15,
        -1e15,
        1e15 + 2.0,
        1e-7,
        0.1 + 0.2,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        1.5,
        -3.25,
        123_456_789.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        1e300,
        -1e-300,
    ];

    const LABELS: &[&str] = &[
        "",
        "plain",
        "a,b",
        "q\"q",
        "\"",
        "line\nbreak",
        "cr\rhere",
        "crlf\r\n",
        ",\",\n\r",
        " spaced ",
        "\u{e9}t\u{e9} \u{1f600}",
        "TOK_EMAIL_0123",
    ];

    fn random_table(rng: &mut Rng) -> Table {
        let n_cols = 1 + rng.below(5);
        let n_rows = rng.below(20);
        let mut attrs = Vec::new();
        let mut columns = Vec::new();
        for c in 0..n_cols {
            let name = if rng.chance(20) {
                format!("{},{c}", rng.pick(LABELS))
            } else {
                format!("col{c}")
            };
            if rng.chance(50) {
                let values = (0..n_rows)
                    .map(|_| {
                        if rng.chance(70) {
                            NUMBERS[rng.below(NUMBERS.len())]
                        } else {
                            let x = f64::from_bits(rng.next());
                            if x.is_finite() {
                                x
                            } else {
                                rng.below(1000) as f64 / 8.0
                            }
                        }
                    })
                    .collect();
                attrs.push(AttributeDef::numeric(name, AttributeRole::QuasiIdentifier));
                columns.push(Column::F64(values));
            } else {
                let mut dictionary = Dictionary::new();
                let codes = (0..n_rows)
                    .map(|_| dictionary.intern(rng.pick(LABELS)))
                    .collect();
                attrs.push(AttributeDef {
                    name,
                    kind: AttributeKind::NominalCategorical,
                    role: AttributeRole::NonConfidential,
                    dictionary,
                });
                columns.push(Column::Cat(codes));
            }
        }
        Table::from_columns(Schema::new(attrs).unwrap(), columns).unwrap()
    }

    #[test]
    fn writer_equals_the_reference_on_random_tables() {
        let mut rng = Rng(0x0c5f_417e);
        for _ in 0..5_000 {
            let table = random_table(&mut rng);
            let mut old = Vec::new();
            write_csv(&table, &mut old).unwrap();
            let mut new = Vec::new();
            super::super::write_csv(&table, &mut new).unwrap();
            assert_eq!(String::from_utf8_lossy(&new), String::from_utf8_lossy(&old));
            assert_eq!(new, old);

            let mut appender =
                super::super::CsvAppendWriter::new(Vec::new(), table.schema()).unwrap();
            appender.append(&table).unwrap();
            assert_eq!(appender.finish().unwrap(), old);
        }
    }

    #[test]
    fn writer_fails_on_an_unknown_code_like_the_reference() {
        let mut rng = Rng(0x0bad_c0de);
        let mut checked = 0;
        while checked < 200 {
            let mut table = random_table(&mut rng);
            let Some(c) = (0..table.n_cols()).find(|&c| !table.schema().is_numeric(c)) else {
                continue;
            };
            if table.is_empty() {
                continue;
            }
            // Shrink the dictionary under the codes the column holds.
            let attr = table.schema_mut().attribute_mut(c).unwrap();
            let keep = rng.below(attr.dictionary.len());
            attr.dictionary = Dictionary::from_labels(attr.dictionary.labels().take(keep));
            let (mut old, mut new) = (Vec::new(), Vec::new());
            let old_result = write_csv(&table, &mut old);
            let new_result = super::super::write_csv(&table, &mut new);
            assert_eq!(new_result, old_result);
            assert!(old_result.is_err());
            assert_eq!(new, old);
            checked += 1;
        }
    }
}
