//! BLAST `-outfmt 6` tabular records.
//!
//! The paper's `alignments.out` is a 12-column tab-separated BLASTX
//! table; blast2cap3 reads columns 1 (query) and 2 (subject) to build
//! protein-sharing clusters. This module writes search results in that
//! format and parses it back, tolerating extra columns the way
//! blast2cap3's own parser does. [`Reader`] parses one row at a time;
//! [`read_file`] is its collecting face.

use crate::search::Hsp;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// One row of 12-column tabular output.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularRecord {
    /// Query sequence id.
    pub query_id: String,
    /// Subject sequence id.
    pub subject_id: String,
    /// Percent identity.
    pub percent_identity: f64,
    /// Alignment length.
    pub length: usize,
    /// Mismatch count.
    pub mismatches: usize,
    /// Gap-open count.
    pub gap_opens: usize,
    /// 1-based query start.
    pub q_start: usize,
    /// 1-based query end.
    pub q_end: usize,
    /// 1-based subject start.
    pub s_start: usize,
    /// 1-based subject end.
    pub s_end: usize,
    /// Expectation value.
    pub evalue: f64,
    /// Bit score.
    pub bit_score: f64,
}

impl From<&Hsp> for TabularRecord {
    fn from(h: &Hsp) -> Self {
        TabularRecord {
            query_id: h.query_id.clone(),
            subject_id: h.subject_id.clone(),
            percent_identity: h.percent_identity,
            length: h.length,
            mismatches: h.mismatches,
            // Every HSP is ungapped.
            gap_opens: 0,
            q_start: h.q_start,
            q_end: h.q_end,
            s_start: h.s_start,
            s_end: h.s_end,
            evalue: h.evalue,
            bit_score: h.bit_score,
        }
    }
}

impl TabularRecord {
    /// Renders the record as one tab-separated line (no newline).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{:.2}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.2e}\t{:.1}",
            self.query_id,
            self.subject_id,
            self.percent_identity,
            self.length,
            self.mismatches,
            self.gap_opens,
            self.q_start,
            self.q_end,
            self.s_start,
            self.s_end,
            self.evalue,
            self.bit_score
        )
    }

    /// Parses one tabular line; extra columns beyond the twelfth are
    /// ignored, matching common BLAST post-processors.
    pub fn parse_line(line: &str) -> Result<TabularRecord, TabularError> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 12 {
            return Err(TabularError::TooFewColumns(cols.len()));
        }
        let f = |i: usize| -> Result<f64, TabularError> {
            cols[i]
                .trim()
                .parse()
                .map_err(|_| TabularError::BadField(i + 1, cols[i].to_string()))
        };
        let u = |i: usize| -> Result<usize, TabularError> {
            cols[i]
                .trim()
                .parse()
                .map_err(|_| TabularError::BadField(i + 1, cols[i].to_string()))
        };
        Ok(TabularRecord {
            query_id: cols[0].to_string(),
            subject_id: cols[1].to_string(),
            percent_identity: f(2)?,
            length: u(3)?,
            mismatches: u(4)?,
            gap_opens: u(5)?,
            q_start: u(6)?,
            q_end: u(7)?,
            s_start: u(8)?,
            s_end: u(9)?,
            evalue: f(10)?,
            bit_score: f(11)?,
        })
    }
}

/// Tabular parsing errors.
#[derive(Debug, PartialEq)]
pub enum TabularError {
    /// Fewer than 12 tab-separated columns.
    TooFewColumns(usize),
    /// A numeric field failed to parse (1-based column, raw text).
    BadField(usize, String),
    /// A row of a stream failed to parse: its 1-based line number and
    /// why.
    AtLine(usize, Box<TabularError>),
    /// Underlying I/O failure (message).
    Io(String),
}

impl std::fmt::Display for TabularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TabularError::TooFewColumns(n) => write!(f, "expected 12 columns, found {n}"),
            TabularError::BadField(col, raw) => write!(f, "bad value {raw:?} in column {col}"),
            TabularError::AtLine(line, e) => write!(f, "line {line}: {e}"),
            TabularError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TabularError {}

fn io_error(e: std::io::Error) -> TabularError {
    TabularError::Io(e.to_string())
}

/// Streaming tabular reader over any [`BufRead`]: one record at a
/// time, skipping blank and `#` comment lines, so a caller holds only
/// the records it keeps. A row that fails to parse is
/// [`TabularError::AtLine`] with its line number.
pub struct Reader<R: BufRead> {
    inner: R,
    /// The current line, line ending included.
    line: String,
    line_no: usize,
}

impl Reader<BufReader<File>> {
    /// Opens a tabular file for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TabularError> {
        let f = File::open(path).map_err(io_error)?;
        Ok(Reader::new(BufReader::new(f)))
    }
}

impl<R: BufRead> Reader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        Reader {
            inner,
            line: String::new(),
            line_no: 0,
        }
    }

    /// Reads the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<TabularRecord>, TabularError> {
        loop {
            self.line.clear();
            if self.inner.read_line(&mut self.line).map_err(io_error)? == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let row = self.line.trim_end();
            if row.is_empty() || row.starts_with('#') {
                continue;
            }
            return TabularRecord::parse_line(row)
                .map(Some)
                .map_err(|e| TabularError::AtLine(self.line_no, Box::new(e)));
        }
    }
}

impl<R: BufRead> Iterator for Reader<R> {
    type Item = Result<TabularRecord, TabularError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Reads every record of a tabular file on disk.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<TabularRecord>, TabularError> {
    Reader::open(path)?.collect()
}

/// Writes one record to any [`Write`] as one line, as [`write_file`]
/// does.
pub fn write_record<W: Write>(mut w: W, rec: &TabularRecord) -> Result<(), TabularError> {
    writeln!(w, "{}", rec.to_line()).map_err(io_error)
}

/// Writes records to a tabular file on disk.
pub fn write_file(path: impl AsRef<Path>, records: &[TabularRecord]) -> Result<(), TabularError> {
    let fill = |w: &mut _| records.iter().try_for_each(|r| write_record(&mut *w, r));
    bioseq::output::replace(path, fill).map_err(io_error)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::codon::Frame;

    fn sample_hsp() -> Hsp {
        Hsp {
            query_id: "tx_1_0".into(),
            subject_id: "prot_1".into(),
            frame: Frame(2),
            percent_identity: 98.75,
            length: 80,
            mismatches: 1,
            q_start: 2,
            q_end: 241,
            s_start: 1,
            s_end: 80,
            evalue: 3.2e-42,
            bit_score: 170.3,
            raw_score: 410,
        }
    }

    #[test]
    fn line_format_has_twelve_columns() {
        let rec = TabularRecord::from(&sample_hsp());
        let line = rec.to_line();
        assert_eq!(line.split('\t').count(), 12);
        assert!(line.starts_with("tx_1_0\tprot_1\t98.75\t80\t"));
    }

    #[test]
    fn round_trip_preserves_pairing_and_integers() {
        let rec = TabularRecord::from(&sample_hsp());
        let back = TabularRecord::parse_line(&rec.to_line()).unwrap();
        assert_eq!(back.query_id, rec.query_id);
        assert_eq!(back.subject_id, rec.subject_id);
        assert_eq!(back.length, rec.length);
        assert_eq!(back.q_start, rec.q_start);
        assert_eq!(back.q_end, rec.q_end);
        assert!((back.percent_identity - rec.percent_identity).abs() < 0.01);
        assert!((back.evalue - rec.evalue).abs() / rec.evalue < 0.01);
    }

    #[test]
    fn parse_rejects_short_rows() {
        assert_eq!(
            TabularRecord::parse_line("a\tb\tc"),
            Err(TabularError::TooFewColumns(3))
        );
    }

    #[test]
    fn parse_reports_bad_numeric_field() {
        let line = "q\ts\tninety\t80\t1\t0\t2\t241\t1\t80\t3e-42\t170.3";
        match TabularRecord::parse_line(line) {
            Err(TabularError::BadField(3, raw)) => assert_eq!(raw, "ninety"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extra_columns_are_tolerated() {
        let line = "q\ts\t99.0\t80\t1\t0\t2\t241\t1\t80\t3e-42\t170.3\textra\tmore";
        let rec = TabularRecord::parse_line(line).unwrap();
        assert_eq!(rec.query_id, "q");
        assert!((rec.bit_score - 170.3).abs() < 1e-9);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# BLASTX 2.2.28+\n\nq\ts\t99.0\t80\t1\t0\t2\t241\t1\t80\t3e-42\t170.3\n";
        let recs: Vec<_> = Reader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("blastx_tab_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alignments.out");
        let recs = vec![TabularRecord::from(&sample_hsp())];
        write_file(&path, &recs).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].subject_id, "prot_1");
        std::fs::remove_file(&path).ok();
    }
}
