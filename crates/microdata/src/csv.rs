//! Minimal, dependency-free CSV reading and writing.
//!
//! Supports RFC-4180-style quoting (fields containing commas, quotes or
//! newlines are wrapped in `"`, embedded quotes doubled). Three ingestion
//! modes are provided:
//!
//! * [`read_csv`] — parse against a known [`Schema`]; categorical labels not
//!   yet in the attribute dictionary are interned on the fly.
//! * [`read_csv_auto`] — infer each column's kind (numeric if every value
//!   parses as `f64`, nominal otherwise, see [`ColumnInference`]); all
//!   roles default to [`AttributeRole::NonConfidential`] and should be
//!   assigned afterwards via [`Schema::set_roles`].
//! * [`CsvChunks`] — the bounded-memory path: an iterator of [`Table`]
//!   shards of at most `chunk_rows` records each, parsed against an
//!   explicit schema. Paired with [`CsvAppendWriter`] (header once, then
//!   shard-by-shard appends) it is the I/O substrate of the streaming
//!   anonymization engine.
//!
//! All three sit on one record reader, [`CsvRecords`], which reads each
//! line into a reused buffer and lends its fields out as `&str`; the
//! writer likewise renders each record into one reused buffer.
//!
//! Every parse error carries the 1-based line number of the offending
//! record in the *file* (blank lines and the header included), so a
//! malformed cell deep in a multi-gigabyte export is locatable. A line
//! that is not valid UTF-8 is such an error too.

use std::io::{BufRead, BufReader, Read, Write};

use crate::attribute::{AttributeDef, AttributeKind, AttributeRole, Dictionary};
use crate::column::Column;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;

#[cfg(test)]
mod reference;

/// Splits one CSV record that is known to be fully contained in `line`
/// into `text`, field after field, ending field `i` at byte `ends[i]`.
///
/// A quote opens a quoted field only at the start of a field; text after
/// the closing quote joins the field.
fn split_record(line: &str, lineno: usize, text: &mut String, ends: &mut Vec<usize>) -> Result<()> {
    text.clear();
    ends.clear();
    let mut rest = line;
    let mut field_start = 0;
    // Every cut below falls on an ASCII `,` or `"`, so on a char boundary.
    while let Some(p) = rest.bytes().position(|b| b == b',' || b == b'"') {
        text.push_str(&rest[..p]);
        let quote = rest.as_bytes()[p] == b'"';
        rest = &rest[p + 1..];
        if !quote {
            ends.push(text.len());
            field_start = text.len();
            continue;
        }
        if text.len() != field_start {
            return Err(Error::Csv {
                line: lineno,
                detail: "quote inside unquoted field".into(),
            });
        }
        loop {
            let Some(q) = rest.find('"') else {
                return Err(Error::Csv {
                    line: lineno,
                    detail: "unterminated quoted field".into(),
                });
            };
            text.push_str(&rest[..q]);
            rest = &rest[q + 1..];
            match rest.strip_prefix('"') {
                Some(after) => {
                    text.push('"');
                    rest = after;
                }
                None => break,
            }
        }
    }
    text.push_str(rest);
    ends.push(text.len());
    Ok(())
}

/// Appends `field` to `out`, quoted if needed for RFC-4180 output.
fn push_field(out: &mut Vec<u8>, field: &str) {
    if !field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.extend_from_slice(field.as_bytes());
        return;
    }
    out.push(b'"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.extend_from_slice(b"\"\"");
        }
        out.extend_from_slice(part.as_bytes());
    }
    out.push(b'"');
}

/// Appends a numeric cell without trailing `.0` noise for integral values.
fn push_number(out: &mut Vec<u8>, x: f64) {
    let written = if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    };
    written.expect("writing to a Vec cannot fail");
}

/// Writes one header line naming `names`.
fn write_header<'a, W: Write>(w: &mut W, names: impl Iterator<Item = &'a str>) -> Result<()> {
    let mut line = Vec::new();
    for (i, name) in names.enumerate() {
        if i > 0 {
            line.push(b',');
        }
        push_field(&mut line, name);
    }
    line.push(b'\n');
    w.write_all(&line)?;
    Ok(())
}

/// Writes the data rows of `table` (no header) as CSV, one reused line
/// buffer and one `write_all` per record.
fn write_rows<W: Write>(table: &Table, w: &mut W) -> Result<()> {
    let columns = (0..table.n_cols())
        .map(|c| Ok((table.schema().attribute(c)?, table.column(c)?)))
        .collect::<Result<Vec<(&AttributeDef, &Column)>>>()?;
    let mut line = Vec::new();
    for r in 0..table.n_rows() {
        line.clear();
        for (c, &(attr, column)) in columns.iter().enumerate() {
            if c > 0 {
                line.push(b',');
            }
            match column {
                Column::F64(values) => push_number(&mut line, values[r]),
                Column::Cat(codes) => {
                    let code = codes[r];
                    let label =
                        attr.dictionary
                            .label(code)
                            .ok_or_else(|| Error::UnknownCategory {
                                attribute: attr.name.clone(),
                                code,
                            })?;
                    push_field(&mut line, label);
                }
            }
        }
        line.push(b'\n');
        w.write_all(&line)?;
    }
    Ok(())
}

/// Writes `table` as CSV (header + one line per record).
///
/// Categorical cells are written as their dictionary labels.
pub fn write_csv<W: Write>(table: &Table, mut w: W) -> Result<()> {
    let names = table.schema().attributes().iter().map(|a| a.name.as_str());
    write_header(&mut w, names)?;
    write_rows(table, &mut w)
}

/// Incremental CSV writer for shard-by-shard output: the header is written
/// once at construction, then each [`CsvAppendWriter::append`] adds the
/// data rows of one table, so an arbitrarily large release can be written
/// holding only one shard in memory.
///
/// Every appended table must carry the same attribute names, in order, as
/// the schema the writer was opened with (dictionaries may differ — cells
/// are written as labels).
#[derive(Debug)]
pub struct CsvAppendWriter<W: Write> {
    w: W,
    names: Vec<String>,
    n_rows: usize,
}

impl<W: Write> CsvAppendWriter<W> {
    /// Opens the writer and emits the header row for `schema`.
    pub fn new(mut w: W, schema: &Schema) -> Result<Self> {
        let names: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
        write_header(&mut w, names.iter().map(String::as_str))?;
        Ok(CsvAppendWriter {
            w,
            names,
            n_rows: 0,
        })
    }

    /// Appends the data rows of `table` (no header).
    pub fn append(&mut self, table: &Table) -> Result<()> {
        let got: Vec<&String> = table
            .schema()
            .attributes()
            .iter()
            .map(|a| &a.name)
            .collect();
        if got.len() != self.names.len() || got.iter().zip(&self.names).any(|(a, b)| *a != b) {
            return Err(Error::RowMismatch {
                detail: format!(
                    "appended table columns {:?} do not match the writer header {:?}",
                    got, self.names
                ),
            });
        }
        write_rows(table, &mut self.w)?;
        self.n_rows += table.n_rows();
        Ok(())
    }

    /// Total number of data rows written so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Reader of the raw records of a CSV stream: the header row is read and
/// validated for well-formedness at construction, then each
/// [`CsvRecords::next_record`] lends out one [`Record`] — its fields as
/// `&str` plus its 1-based *file* line number (header and blank lines
/// included), the substrate of every error this module reports.
///
/// Lines end at `\n`; trailing `\r`s are dropped, so CRLF input reads like
/// LF input. Blank lines are skipped; a line that is not valid UTF-8 and
/// a ragged record (field count ≠ header count) error out with their line
/// number. The line and its fields live in buffers reused from record to
/// record.
#[derive(Debug)]
pub struct CsvRecords<R: Read> {
    reader: BufReader<R>,
    header: Vec<String>,
    /// Raw bytes of the current line.
    line: Vec<u8>,
    /// Fields of the current record, back to back.
    text: String,
    /// End of each field in `text`.
    ends: Vec<usize>,
    lineno: usize,
}

/// One record lent out by [`CsvRecords::next_record`].
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    line: usize,
    text: &'a str,
    ends: &'a [usize],
}

impl<'a> Record<'a> {
    /// 1-based line number of the record in the file.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The fields, in column order.
    pub fn fields(&self) -> impl Iterator<Item = &'a str> + 'a {
        let text = self.text;
        self.ends.iter().scan(0, move |start, &end| {
            let field = &text[*start..end];
            *start = end;
            Some(field)
        })
    }
}

impl<R: Read> CsvRecords<R> {
    /// Opens the stream and consumes its header row.
    pub fn new(reader: R) -> Result<Self> {
        let mut records = CsvRecords {
            reader: BufReader::new(reader),
            header: Vec::new(),
            line: Vec::new(),
            text: String::new(),
            ends: Vec::new(),
            lineno: 0,
        };
        if !records.next_line()? {
            return Err(Error::Csv {
                line: 1,
                detail: "empty input: missing header".into(),
            });
        }
        records.split()?;
        records.header = records.current().fields().map(str::to_owned).collect();
        Ok(records)
    }

    /// The header fields (column names).
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Reads the next non-blank record; `Ok(None)` at the end of the input.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>> {
        loop {
            if !self.next_line()? {
                return Ok(None);
            }
            if self.line.is_empty() {
                continue;
            }
            self.split()?;
            if self.ends.len() != self.header.len() {
                return Err(Error::Csv {
                    line: self.lineno,
                    detail: format!(
                        "record has {} fields, expected {}",
                        self.ends.len(),
                        self.header.len()
                    ),
                });
            }
            return Ok(Some(self.current()));
        }
    }

    fn current(&self) -> Record<'_> {
        Record {
            line: self.lineno,
            text: &self.text,
            ends: &self.ends,
        }
    }

    /// Reads the next line into `line`, without its `\n` and trailing
    /// `\r`s; `Ok(false)` at the end of the input.
    fn next_line(&mut self) -> Result<bool> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        self.lineno += 1;
        // `read_until` stops at the first `\n`, so it can only be last.
        while let Some(b'\n' | b'\r') = self.line.last() {
            self.line.pop();
        }
        Ok(true)
    }

    /// Splits the current line into `text`/`ends`.
    fn split(&mut self) -> Result<()> {
        let line = std::str::from_utf8(&self.line).map_err(|e| Error::Csv {
            line: self.lineno,
            detail: format!("line is not valid UTF-8 ({e})"),
        })?;
        split_record(line, self.lineno, &mut self.text, &mut self.ends)
    }
}

/// Checks that the header names exactly match the schema's attribute
/// names, in order.
fn validate_header(names: &[String], schema: &Schema) -> Result<()> {
    if names.len() != schema.n_attributes() {
        return Err(Error::Csv {
            line: 1,
            detail: format!(
                "header has {} columns but the schema has {}",
                names.len(),
                schema.n_attributes()
            ),
        });
    }
    for (i, name) in names.iter().enumerate() {
        let want = &schema.attribute(i)?.name;
        if name != want {
            return Err(Error::Csv {
                line: 1,
                detail: format!("header column {i} is {name:?}, expected {want:?}"),
            });
        }
    }
    Ok(())
}

/// Parses a numeric cell of column `column`; it must be finite.
fn parse_number(field: &str, line: usize, column: usize) -> Result<f64> {
    let x: f64 = field.trim().parse().map_err(|_| Error::Csv {
        line,
        detail: format!("cannot parse {field:?} as a number (column {column})"),
    })?;
    if !x.is_finite() {
        return Err(Error::Csv {
            line,
            detail: format!("non-finite number {field:?} (column {column})"),
        });
    }
    Ok(x)
}

/// Appends one record to the typed `columns` of `schema`, interning
/// unseen categorical labels, and reports any failure at the record's
/// file line.
fn push_record(schema: &mut Schema, columns: &mut [Column], record: Record<'_>) -> Result<()> {
    for (i, (column, field)) in columns.iter_mut().zip(record.fields()).enumerate() {
        match column {
            Column::F64(values) => values.push(parse_number(field, record.line(), i)?),
            Column::Cat(codes) => codes.push(schema.attribute_mut(i)?.dictionary.intern(field)),
        }
    }
    Ok(())
}

/// Bounded-memory chunked CSV reader: an iterator of [`Table`] shards of at
/// most `chunk_rows` records each, parsed against an explicit [`Schema`]
/// (the fast path — no inference pass, values land directly in typed
/// columns).
///
/// Categorical labels not yet in a dictionary are interned in file order as
/// they appear, so codes are consistent *across* chunks of one pass; each
/// yielded table carries a schema snapshot whose dictionaries cover every
/// label seen so far. Snapshots share their dictionaries with the reader
/// (see [`Dictionary`]): the labels are stored once, however many chunks
/// are alive, and are copied only when a later chunk interns a label the
/// schema did not hold while an earlier chunk is still alive. After a
/// parse error the iterator fuses (yields `None` forever).
#[derive(Debug)]
pub struct CsvChunks<R: Read> {
    records: CsvRecords<R>,
    schema: Schema,
    chunk_rows: usize,
    rows_read: usize,
    done: bool,
}

impl<R: Read> CsvChunks<R> {
    /// Opens the stream, validating the header against `schema`.
    ///
    /// `chunk_rows` is the maximum number of records per yielded table and
    /// must be at least 1.
    pub fn new(reader: R, schema: Schema, chunk_rows: usize) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(Error::InvalidSchema("chunk_rows must be at least 1".into()));
        }
        let records = CsvRecords::new(reader)?;
        validate_header(records.header(), &schema)?;
        Ok(CsvChunks {
            records,
            schema,
            chunk_rows,
            rows_read: 0,
            done: false,
        })
    }

    /// The schema as of the last yielded chunk (dictionaries grow as labels
    /// are interned).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of data records yielded so far.
    pub fn rows_read(&self) -> usize {
        self.rows_read
    }

    /// Parses up to `chunk_rows` records straight into typed columns.
    fn read_chunk(&mut self) -> Result<Option<Table>> {
        let mut columns: Vec<Column> = self
            .schema
            .attributes()
            .iter()
            .map(|a| Column::empty(a.kind.is_categorical()))
            .collect();
        let mut n = 0;
        while n < self.chunk_rows {
            let Some(record) = self.records.next_record()? else {
                break;
            };
            push_record(&mut self.schema, &mut columns, record)?;
            n += 1;
        }
        if n == 0 {
            return Ok(None);
        }
        self.rows_read += n;
        Table::from_columns(self.schema.clone(), columns).map(Some)
    }
}

impl<R: Read> Iterator for CsvChunks<R> {
    type Item = Result<Table>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let chunk = self.read_chunk();
        self.done = !matches!(chunk, Ok(Some(_)));
        chunk.transpose()
    }
}

/// Serializes `table` to a CSV string.
pub fn to_csv_string(table: &Table) -> Result<String> {
    let mut buf = Vec::new();
    write_csv(table, &mut buf)?;
    String::from_utf8(buf).map_err(|e| Error::Io(e.to_string()))
}

/// Reads CSV against a known schema.
///
/// The header must contain exactly the schema's attribute names in order.
/// Categorical labels missing from the dictionary are interned.
pub fn read_csv<R: Read>(reader: R, schema: Schema) -> Result<Table> {
    let mut chunks = CsvChunks::new(reader, schema, usize::MAX)?;
    match chunks.next() {
        Some(table) => table,
        None => Ok(Table::new(chunks.schema)),
    }
}

/// Kind inference for one CSV column over a whole scan — the rule of
/// [`read_csv_auto`] and of the streaming engine's schema-less fit.
///
/// A column is numeric when every field parses as `f64` (after trimming
/// whitespace), and nominal otherwise. Every field is interned as it is
/// scanned, so a column that stops looking numeric at any record already
/// holds its dictionary in first-appearance order. A column that ends
/// numeric must be finite throughout: [`ColumnInference::first_non_finite`]
/// names its first `inf`/`nan` field, which a nominal column keeps as a
/// label.
#[derive(Debug, Clone, Default)]
pub struct ColumnInference {
    dictionary: Dictionary,
    non_numeric: bool,
    first_non_finite: Option<(usize, String)>,
}

impl ColumnInference {
    /// Empty inference state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scans the column's next field, found on file line `line`: interns
    /// it and returns its code, plus its value while every field so far
    /// has parsed as a number.
    pub fn push(&mut self, field: &str, line: usize) -> (u32, Option<f64>) {
        let code = self.dictionary.intern(field);
        if self.non_numeric {
            return (code, None);
        }
        let Ok(x) = field.trim().parse::<f64>() else {
            self.non_numeric = true;
            return (code, None);
        };
        if !x.is_finite() && self.first_non_finite.is_none() {
            self.first_non_finite = Some((line, field.to_owned()));
        }
        (code, Some(x))
    }

    /// True while every field scanned so far parsed as a number.
    pub fn is_numeric(&self) -> bool {
        !self.non_numeric
    }

    /// File line and text of the first field that parsed as a non-finite
    /// number.
    pub fn first_non_finite(&self) -> Option<(usize, &str)> {
        self.first_non_finite
            .as_ref()
            .map(|(line, field)| (*line, field.as_str()))
    }

    /// The column's labels in first-appearance order.
    pub fn into_dictionary(self) -> Dictionary {
        self.dictionary
    }
}

/// Reads CSV inferring each column's kind from its values (see
/// [`ColumnInference`]) in one scan. Roles default to non-confidential.
///
/// A non-finite number in a column that ends numeric fails at the first
/// such record.
pub fn read_csv_auto<R: Read>(reader: R) -> Result<Table> {
    let mut records = CsvRecords::new(reader)?;
    let names = records.header().to_vec();
    // Per column: its inference, its codes, and its numbers while every
    // field so far parsed as one.
    let mut scans = vec![(ColumnInference::new(), Vec::new(), Vec::new()); names.len()];
    while let Some(record) = records.next_record()? {
        for ((kind, codes, values), field) in scans.iter_mut().zip(record.fields()) {
            let (code, value) = kind.push(field, record.line());
            codes.push(code);
            if let Some(x) = value {
                values.push(x);
            }
        }
    }

    let mut attrs = Vec::with_capacity(names.len());
    let mut columns = Vec::with_capacity(names.len());
    let mut first_error: Option<(usize, usize, String)> = None;
    for (i, (name, (kind, codes, values))) in names.into_iter().zip(scans).enumerate() {
        if !kind.is_numeric() {
            attrs.push(AttributeDef {
                name,
                kind: AttributeKind::NominalCategorical,
                role: AttributeRole::NonConfidential,
                dictionary: kind.into_dictionary(),
            });
            columns.push(Column::Cat(codes));
            continue;
        }
        if let Some((line, field)) = kind.first_non_finite() {
            if first_error.as_ref().is_none_or(|(l, ..)| line < *l) {
                first_error = Some((line, i, field.to_owned()));
            }
        }
        attrs.push(AttributeDef::numeric(name, AttributeRole::NonConfidential));
        columns.push(Column::F64(values));
    }
    let schema = Schema::new(attrs)?;
    if let Some((line, i, field)) = first_error {
        return Err(Error::Csv {
            line,
            detail: format!("non-finite number {field:?} (column {i})"),
        });
    }
    Table::from_columns(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            AttributeDef::numeric("age", AttributeRole::QuasiIdentifier),
            AttributeDef::nominal("city", AttributeRole::QuasiIdentifier, Vec::<String>::new()),
            AttributeDef::numeric("income", AttributeRole::Confidential),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_with_quoting() {
        let mut t = Table::new(
            Schema::new(vec![
                AttributeDef::numeric("x", AttributeRole::QuasiIdentifier),
                AttributeDef::nominal(
                    "label",
                    AttributeRole::Confidential,
                    ["a,b", "q\"q", "plain"],
                ),
            ])
            .unwrap(),
        );
        t.push_row(&[Value::Number(1.5), Value::Category(0)])
            .unwrap();
        t.push_row(&[Value::Number(2.0), Value::Category(1)])
            .unwrap();
        t.push_row(&[Value::Number(-3.0), Value::Category(2)])
            .unwrap();

        let s = to_csv_string(&t).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"q\"\"q\""));

        let schema2 = Schema::new(vec![
            AttributeDef::numeric("x", AttributeRole::QuasiIdentifier),
            AttributeDef::nominal("label", AttributeRole::Confidential, Vec::<String>::new()),
        ])
        .unwrap();
        let t2 = read_csv(s.as_bytes(), schema2).unwrap();
        assert_eq!(t2.n_rows(), 3);
        assert_eq!(t2.numeric_column(0).unwrap(), &[1.5, 2.0, -3.0]);
        let dict = &t2.schema().attribute(1).unwrap().dictionary;
        assert_eq!(dict.label(0), Some("a,b"));
        assert_eq!(dict.label(1), Some("q\"q"));
    }

    #[test]
    fn read_csv_validates_header() {
        let bad_count = "age,city\n1,x,2\n";
        assert!(read_csv(bad_count.as_bytes(), demo_schema()).is_err());
        let bad_name = "age,town,income\n1,x,2\n";
        assert!(read_csv(bad_name.as_bytes(), demo_schema()).is_err());
        let empty = "";
        assert!(read_csv(empty.as_bytes(), demo_schema()).is_err());
    }

    #[test]
    fn read_csv_reports_bad_number_with_line() {
        let data = "age,city,income\n30,rome,100\nxx,paris,200\n";
        let err = read_csv(data.as_bytes(), demo_schema()).unwrap_err();
        match err {
            Error::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("expected CSV error, got {other}"),
        }
    }

    #[test]
    fn read_csv_skips_blank_lines() {
        let data = "age,city,income\n30,rome,100\n\n31,paris,200\n\n";
        let t = read_csv(data.as_bytes(), demo_schema()).unwrap();
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn auto_inference() {
        let data = "a,b,c\n1,x,0.5\n2,y,1.5\n3,x,2.5\n";
        let t = read_csv_auto(data.as_bytes()).unwrap();
        assert!(t.schema().is_numeric(0));
        assert!(!t.schema().is_numeric(1));
        assert!(t.schema().is_numeric(2));
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.categorical_column(1).unwrap(), &[0, 1, 0]);
    }

    #[test]
    fn auto_inference_mixed_column_becomes_nominal() {
        let data = "a\n1\ntwo\n3\n";
        let t = read_csv_auto(data.as_bytes()).unwrap();
        assert!(!t.schema().is_numeric(0));
        assert_eq!(t.categorical_column(0).unwrap().len(), 3);
    }

    #[test]
    fn chunked_reader_matches_whole_file_read() {
        // 7 rows, chunk size 3 → shards of 3/3/1; concatenation == read_csv.
        let mut data = String::from("age,city,income\n");
        for i in 0..7 {
            data.push_str(&format!("{},c{},{}\n", 20 + i, i % 3, 100 * i));
        }
        let whole = read_csv(data.as_bytes(), demo_schema()).unwrap();

        let mut chunks = CsvChunks::new(data.as_bytes(), demo_schema(), 3).unwrap();
        let shards: Vec<Table> = chunks.by_ref().map(|c| c.unwrap()).collect();
        assert_eq!(
            shards.iter().map(Table::n_rows).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        assert_eq!(chunks.rows_read(), 7);

        // codes are interned consistently across chunks: rebuild and compare
        let mut offset = 0;
        for shard in &shards {
            for c in 0..whole.n_cols() {
                for r in 0..shard.n_rows() {
                    assert_eq!(
                        shard.column(c).unwrap().get(r),
                        whole.column(c).unwrap().get(offset + r)
                    );
                }
            }
            offset += shard.n_rows();
        }
        // final chunk's schema dictionary covers every label
        assert_eq!(
            shards
                .last()
                .unwrap()
                .schema()
                .attribute(1)
                .unwrap()
                .dictionary
                .len(),
            3
        );
    }

    #[test]
    fn chunked_reader_reports_malformed_input_with_line_numbers() {
        // ragged row on file line 4 (blank line 3 must not shift it)
        let ragged = "age,city,income\n30,rome,100\n\n31,paris\n";
        let mut chunks = CsvChunks::new(ragged.as_bytes(), demo_schema(), 10).unwrap();
        assert_eq!(
            chunks.next().unwrap().unwrap_err(),
            Error::Csv {
                line: 4,
                detail: "record has 2 fields, expected 3".into(),
            }
        );
        // the iterator fuses after an error
        assert!(chunks.next().is_none());

        // non-finite numeric ("inf" parses as f64 but is not valid microdata)
        let nonfinite = "age,city,income\n30,rome,100\n31,lyon,inf\n";
        let mut chunks = CsvChunks::new(nonfinite.as_bytes(), demo_schema(), 10).unwrap();
        match chunks.next().unwrap().unwrap_err() {
            Error::Csv { line, detail } => {
                assert_eq!(line, 3);
                assert!(detail.contains("non-finite"), "{detail}");
            }
            other => panic!("expected CSV error, got {other}"),
        }

        // a chunk boundary before the bad record still delivers the good chunk
        let late = "age,city,income\n30,rome,100\n31,lyon,200\n32,oslo,nan\n";
        let mut chunks = CsvChunks::new(late.as_bytes(), demo_schema(), 2).unwrap();
        assert_eq!(chunks.next().unwrap().unwrap().n_rows(), 2);
        match chunks.next().unwrap().unwrap_err() {
            Error::Csv { line, .. } => assert_eq!(line, 4),
            other => panic!("expected CSV error, got {other}"),
        }

        // empty input: no header
        assert_eq!(
            CsvChunks::new("".as_bytes(), demo_schema(), 10).unwrap_err(),
            Error::Csv {
                line: 1,
                detail: "empty input: missing header".into(),
            }
        );
        // header only: zero chunks, not an error
        let mut chunks = CsvChunks::new("age,city,income\n".as_bytes(), demo_schema(), 10).unwrap();
        assert!(chunks.next().is_none());
        assert_eq!(chunks.rows_read(), 0);
        // header mismatch
        assert!(CsvChunks::new("a,b\n1,2\n".as_bytes(), demo_schema(), 10).is_err());
        // zero chunk size rejected
        assert!(CsvChunks::new("age,city,income\n".as_bytes(), demo_schema(), 0).is_err());
    }

    #[test]
    fn append_writer_round_trips_shards() {
        let data = "age,city,income\n30,rome,100\n31,paris,200\n32,rome,300\n";
        let shards: Vec<Table> = CsvChunks::new(data.as_bytes(), demo_schema(), 2)
            .unwrap()
            .map(|c| c.unwrap())
            .collect();

        let mut w = CsvAppendWriter::new(Vec::new(), shards[0].schema()).unwrap();
        for s in &shards {
            w.append(s).unwrap();
        }
        assert_eq!(w.n_rows(), 3);
        let bytes = w.finish().unwrap();
        let merged = read_csv(bytes.as_slice(), demo_schema()).unwrap();
        let whole = read_csv(data.as_bytes(), demo_schema()).unwrap();
        assert_eq!(merged.n_rows(), 3);
        assert_eq!(
            merged.numeric_column(0).unwrap(),
            whole.numeric_column(0).unwrap()
        );
        assert_eq!(
            merged.categorical_column(1).unwrap(),
            whole.categorical_column(1).unwrap()
        );

        // mismatched columns are rejected
        let other = read_csv_auto("x\n1\n".as_bytes()).unwrap();
        let mut w = CsvAppendWriter::new(Vec::new(), shards[0].schema()).unwrap();
        assert!(matches!(w.append(&other), Err(Error::RowMismatch { .. })));
    }

    #[test]
    fn read_csv_line_numbers_survive_blank_lines() {
        // blank line 2: the bad record sits on file line 4 and must say so
        let data = "age,city,income\n\n30,rome,100\nxx,paris,200\n";
        match read_csv(data.as_bytes(), demo_schema()).unwrap_err() {
            Error::Csv { line, .. } => assert_eq!(line, 4),
            other => panic!("expected CSV error, got {other}"),
        }
        match read_csv_auto("a\n\n1\n\nnan\n".as_bytes()).unwrap_err() {
            Error::Csv { line, detail } => {
                assert_eq!(line, 5);
                assert!(detail.contains("non-finite"), "{detail}");
            }
            other => panic!("expected CSV error, got {other}"),
        }
    }

    #[test]
    fn invalid_utf8_fails_at_its_file_line() {
        let data = b"age,city,income\n30,rome,100\n\n31,p\xffris,200\n";
        let want = |e: Error| match e {
            Error::Csv { line, detail } => {
                assert_eq!(line, 4);
                assert!(detail.contains("UTF-8"), "{detail}");
            }
            other => panic!("expected CSV error, got {other}"),
        };
        want(read_csv(&data[..], demo_schema()).unwrap_err());
        want(read_csv_auto(&data[..]).unwrap_err());
        let mut chunks = CsvChunks::new(&data[..], demo_schema(), 1).unwrap();
        assert_eq!(chunks.next().unwrap().unwrap().n_rows(), 1);
        want(chunks.next().unwrap().unwrap_err());
        assert!(chunks.next().is_none());
        // in the header too
        match CsvRecords::new(&b"a\xc3,b\n1,2\n"[..]).unwrap_err() {
            Error::Csv { line, .. } => assert_eq!(line, 1),
            other => panic!("expected CSV error, got {other}"),
        }
    }

    #[test]
    fn crlf_input_reads_like_lf_input() {
        let lf = "age,city,income\n30,rome,100\n\n31,\"par,is\",200\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(
            read_csv(crlf.as_bytes(), demo_schema()).unwrap(),
            read_csv(lf.as_bytes(), demo_schema()).unwrap()
        );
        assert_eq!(
            read_csv_auto(crlf.as_bytes()).unwrap(),
            read_csv_auto(lf.as_bytes()).unwrap()
        );
    }

    #[test]
    fn split_line_errors() {
        let split = |line: &str| {
            let (mut text, mut ends) = (String::new(), Vec::new());
            split_record(line, 1, &mut text, &mut ends)?;
            let record = Record {
                line: 1,
                text: &text,
                ends: &ends,
            };
            Ok::<_, Error>(record.fields().map(str::to_owned).collect::<Vec<_>>())
        };
        assert!(split("\"unterminated").is_err());
        assert!(split("ab\"cd").is_err());
        assert_eq!(split("a,,b").unwrap(), vec!["a", "", "b"]);
        assert_eq!(split("").unwrap(), vec![""]);
        assert_eq!(split("\"a\"\"b\",\"\"x").unwrap(), vec!["a\"b", "x"]);
        for line in ["\"unterminated", "ab\"cd", "a,,b", "", "\"a\"\"b\",\"\"x"] {
            assert_eq!(split(line), reference::split_line(line, 1), "{line:?}");
        }
    }

    #[test]
    fn number_formatting() {
        let format = |x: f64| {
            let mut out = Vec::new();
            push_number(&mut out, x);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(format(3.0), "3");
        assert_eq!(format(3.25), "3.25");
        assert_eq!(format(-7.0), "-7");
        for x in [3.0, 3.25, -7.0, -0.0, 1e15, 1e15 - 1.0, 1e-7, 0.1 + 0.2] {
            assert_eq!(format(x), reference::format_number(x), "{x}");
        }
    }
}
