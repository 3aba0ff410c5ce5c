//! FASTA reading and writing, for both alphabets.
//!
//! The workflow tasks exchange transcript sets as FASTA files
//! (`transcripts.fasta`, per-cluster inputs, CAP3 contig outputs), and
//! the aligner reads its protein database as FASTA, so one reader
//! serves both: it is stream-oriented and tolerant of the formatting
//! found in real pipelines (multi-line bodies, blank lines between
//! records, Windows line endings, descriptions after the identifier),
//! and only the [`Sequence`] a body decodes into differs.

use crate::error::{BioError, Result};
use crate::seq::{DnaSeq, ProteinSeq};
use std::io::{BufRead, BufReader, Read, Write};
use std::marker::PhantomData;
use std::path::Path;

/// A sequence type a FASTA body decodes into: [`DnaSeq`] or
/// [`ProteinSeq`].
pub trait Sequence: Sized {
    /// Decodes a body, refusing a byte outside the alphabet.
    fn from_ascii(bytes: &[u8]) -> Result<Self>;
    /// The sequence as upper-case ASCII.
    fn as_bytes(&self) -> &[u8];
}

impl Sequence for DnaSeq {
    fn from_ascii(bytes: &[u8]) -> Result<Self> {
        DnaSeq::from_ascii(bytes)
    }
    fn as_bytes(&self) -> &[u8] {
        DnaSeq::as_bytes(self)
    }
}

impl Sequence for ProteinSeq {
    fn from_ascii(bytes: &[u8]) -> Result<Self> {
        ProteinSeq::from_ascii(bytes)
    }
    fn as_bytes(&self) -> &[u8] {
        ProteinSeq::as_bytes(self)
    }
}

/// A single FASTA record: identifier, optional description, sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<S = DnaSeq> {
    /// Identifier: the header token up to the first whitespace.
    pub id: String,
    /// Remainder of the header line (may be empty).
    pub desc: String,
    /// The sequence body.
    pub seq: S,
}

/// A protein FASTA record (amino-acid alphabet).
pub type ProteinRecord = Record<ProteinSeq>;

impl<S: Sequence> Record<S> {
    /// Creates a record from parts.
    pub fn new(id: impl Into<String>, desc: impl Into<String>, seq: S) -> Self {
        Record {
            id: id.into(),
            desc: desc.into(),
            seq,
        }
    }

    /// Renders the record as FASTA, wrapping the body at `width`
    /// columns (`0` means no wrapping).
    pub fn to_fasta_string(&self, width: usize) -> String {
        let body = self.seq.as_bytes();
        let mut out = String::with_capacity(body.len() + self.id.len() + 16);
        out.push('>');
        out.push_str(&self.id);
        if !self.desc.is_empty() {
            out.push(' ');
            out.push_str(&self.desc);
        }
        out.push('\n');
        if width == 0 {
            out.push_str(std::str::from_utf8(body).expect("sequences are ASCII"));
            out.push('\n');
        } else {
            for chunk in body.chunks(width) {
                out.push_str(std::str::from_utf8(chunk).expect("sequences are ASCII"));
                out.push('\n');
            }
        }
        out
    }
}

/// Streaming FASTA reader over any [`Read`]: one record at a time, so
/// a caller holds only the records it keeps. [`read_file`],
/// [`parse_str`] and [`read_protein_file`] are its collecting faces.
///
/// Lines are read as bytes. A header must be UTF-8; a body byte
/// outside the alphabet of `S` is a [`BioError::MalformedFasta`]
/// naming its record.
pub struct Reader<R: Read, S = DnaSeq> {
    inner: BufReader<R>,
    /// The current line without its line ending.
    line: Vec<u8>,
    /// `line` is a header the last body read stopped at.
    at_header: bool,
    line_no: usize,
    alphabet: PhantomData<S>,
}

impl Reader<std::fs::File> {
    /// Opens a FASTA file for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Reader::over(std::fs::File::open(path)?))
    }
}

impl<R: Read> Reader<R> {
    /// Wraps a reader.
    pub fn new(inner: R) -> Self {
        Reader::over(inner)
    }
}

impl<R: Read, S: Sequence> Reader<R, S> {
    /// Wraps a reader whose bodies decode as `S`.
    fn over(inner: R) -> Self {
        Reader {
            inner: BufReader::new(inner),
            line: Vec::new(),
            at_header: false,
            line_no: 0,
            alphabet: PhantomData,
        }
    }

    /// Reads the next line into `line`, line ending trimmed; `false`
    /// at end of input.
    fn next_line(&mut self) -> Result<bool> {
        self.line.clear();
        if self.inner.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        while matches!(self.line.last(), Some(b'\n' | b'\r')) {
            self.line.pop();
        }
        Ok(true)
    }

    /// Moves to the next header over blank lines, leaving it in
    /// `line`; `false` at end of input.
    fn next_header(&mut self) -> Result<bool> {
        if std::mem::take(&mut self.at_header) {
            return Ok(true);
        }
        while self.next_line()? {
            match self.line.first() {
                None => {}
                Some(b'>') => return Ok(true),
                Some(_) => {
                    return Err(BioError::MalformedFasta {
                        line: self.line_no,
                        reason: format!(
                            "expected '>' header, found {:?}",
                            String::from_utf8_lossy(&self.line)
                        ),
                    })
                }
            }
        }
        Ok(false)
    }

    /// Reads body lines up to the next header or the end of input,
    /// collecting them only when `keep`.
    fn body(&mut self, keep: bool) -> Result<Vec<u8>> {
        let mut body = Vec::new();
        while self.next_line()? {
            match self.line.first() {
                None => {}
                Some(b'>') => {
                    self.at_header = true;
                    break;
                }
                Some(_) if keep => body.extend_from_slice(&self.line),
                Some(_) => {}
            }
        }
        Ok(body)
    }

    /// Reads the next record, or `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<Record<S>>> {
        self.next_where(|_| true)
    }

    /// Reads the next record whose id `keep` accepts, or `Ok(None)` at
    /// end of input. Every header is checked, but the body of a record
    /// `keep` refuses is skipped without being decoded, so an invalid
    /// base in it goes unseen.
    pub fn next_where(&mut self, mut keep: impl FnMut(&str) -> bool) -> Result<Option<Record<S>>> {
        while self.next_header()? {
            let header = std::str::from_utf8(&self.line[1..]).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            if header.trim().is_empty() {
                return Err(BioError::MalformedFasta {
                    line: self.line_no,
                    reason: "empty header".into(),
                });
            }
            let (id, desc) = header
                .split_once(char::is_whitespace)
                .unwrap_or((header, ""));
            if !keep(id) {
                self.body(false)?;
                continue;
            }
            let (id, desc) = (id.to_string(), desc.trim().to_string());
            let body = self.body(true)?;
            let seq = S::from_ascii(&body).map_err(|e| {
                let (what, byte, pos) = match e {
                    BioError::InvalidBase { byte, pos } => ("base", byte, pos),
                    BioError::InvalidResidue { byte, pos } => ("residue", byte, pos),
                    other => return other,
                };
                BioError::MalformedFasta {
                    line: self.line_no,
                    reason: format!(
                        "record {id:?}: invalid {what} 0x{byte:02x} at sequence offset {pos}"
                    ),
                }
            })?;
            return Ok(Some(Record { id, desc, seq }));
        }
        Ok(None)
    }

    /// Collects every remaining record.
    fn read_all(&mut self) -> Result<Vec<Record<S>>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

impl<R: Read, S: Sequence> Iterator for Reader<R, S> {
    type Item = Result<Record<S>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Reads every record from a protein FASTA file on disk.
pub fn read_protein_file(path: impl AsRef<Path>) -> Result<Vec<ProteinRecord>> {
    Reader::over(std::fs::File::open(path)?).read_all()
}

/// Parses every record from an in-memory FASTA string.
pub fn parse_str(s: &str) -> Result<Vec<Record>> {
    Reader::new(s.as_bytes()).read_all()
}

/// Reads every record from a FASTA file on disk.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<Record>> {
    Reader::open(path)?.read_all()
}

/// Writes one record to any [`Write`] as [`write_file`] does,
/// wrapping its body at 60 columns.
pub fn write_record<W: Write, S: Sequence>(mut w: W, rec: &Record<S>) -> Result<()> {
    w.write_all(rec.to_fasta_string(60).as_bytes())?;
    Ok(())
}

/// Writes records to a FASTA file, wrapping bodies at 60 columns.
pub fn write_file<S: Sequence>(path: impl AsRef<Path>, records: &[Record<S>]) -> Result<()> {
    let fill = |w: &mut _| records.iter().try_for_each(|r| write_record(&mut *w, r));
    crate::output::replace(path, fill)?
}

/// Renders records to a single FASTA string (60-column bodies).
pub fn to_string(records: &[Record]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_fasta_string(60));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, seq: &str) -> Record {
        Record::new(id, "", DnaSeq::from_ascii(seq.as_bytes()).unwrap())
    }

    fn parse_proteins(s: &str) -> Result<Vec<ProteinRecord>> {
        Reader::over(s.as_bytes()).read_all()
    }

    #[test]
    fn parses_single_record() {
        let recs = parse_str(">tx1 some desc\nACGT\nACGT\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "tx1");
        assert_eq!(recs[0].desc, "some desc");
        assert_eq!(recs[0].seq.as_bytes(), b"ACGTACGT");
    }

    #[test]
    fn parses_multiple_records_with_blank_lines() {
        let recs = parse_str(">a\nAC\n\n>b\nGT\nTT\n\n>c\nNN\n").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].seq.as_bytes(), b"GTTT");
        assert_eq!(recs[2].id, "c");
    }

    #[test]
    fn handles_crlf_and_missing_trailing_newline() {
        let recs = parse_str(">a\r\nACGT\r\n>b\r\nTTTT").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq.as_bytes(), b"ACGT");
        assert_eq!(recs[1].seq.as_bytes(), b"TTTT");
    }

    #[test]
    fn rejects_body_before_header() {
        let err = parse_str("ACGT\n>a\nACGT\n").unwrap_err();
        assert!(matches!(err, BioError::MalformedFasta { line: 1, .. }));
    }

    #[test]
    fn rejects_empty_header() {
        assert!(parse_str(">\nACGT\n").is_err());
        assert!(parse_str(">   \nACGT\n").is_err());
    }

    #[test]
    fn rejects_invalid_bases_naming_the_record() {
        let err = parse_str(">weird\nACGZ\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("weird"), "message was {msg}");
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(parse_str("").unwrap().is_empty());
        assert!(parse_str("\n\n").unwrap().is_empty());
    }

    #[test]
    fn empty_sequence_records_are_allowed() {
        // CAP3 singlet files may contain zero-length placeholders.
        let recs = parse_str(">a\n>b\nACGT\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].seq.is_empty());
    }

    #[test]
    fn wrapping_round_trip() {
        let original = vec![rec("x", &"ACGT".repeat(50)), rec("y", "A")];
        let text = to_string(&original);
        // 200 bases at 60 columns -> 4 body lines for record x.
        assert_eq!(text.lines().filter(|l| !l.starts_with('>')).count(), 5);
        let parsed = parse_str(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn zero_width_means_single_line_body() {
        let r = rec("x", &"AC".repeat(100));
        let text = r.to_fasta_string(0);
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn iterator_interface_matches_read_all() {
        let text = ">a\nAC\n>b\nGT\n";
        let via_iter: Vec<Record> = Reader::new(text.as_bytes())
            .collect::<Result<Vec<_>>>()
            .unwrap();
        let via_read_all = parse_str(text).unwrap();
        assert_eq!(via_iter, via_read_all);
    }

    #[test]
    fn a_refused_record_is_skipped_undecoded_but_its_header_is_checked() {
        let only_b = |id: &str| id == "b";
        let mut r = Reader::new(">a\nACGZ\n>b x\nGT\n\nTT\n>c\nNN\n".as_bytes());
        let b = Record::new("b", "x", DnaSeq::from_ascii(b"GTTT").unwrap());
        assert_eq!(r.next_where(only_b).unwrap(), Some(b));
        assert_eq!(r.next_where(only_b).unwrap(), None);
        let mut r = Reader::new(">a\nAC\n>\nGT\n>b\nGT\n".as_bytes());
        let err = r.next_where(only_b).unwrap_err();
        assert!(
            matches!(err, BioError::MalformedFasta { line: 3, .. }),
            "{err}"
        );
        let mut r = Reader::new("ACGT\n>b\nGT\n".as_bytes());
        let err = r.next_where(only_b).unwrap_err();
        assert!(
            matches!(err, BioError::MalformedFasta { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn protein_fasta_round_trip() {
        use crate::seq::ProteinSeq;
        let recs = vec![
            ProteinRecord::new(
                "prot_1",
                "ancestral",
                ProteinSeq::from_ascii(b"MKWVLLLFAARNDCEQ").unwrap(),
            ),
            ProteinRecord::new("prot_2", "", ProteinSeq::from_ascii(b"GGHHX*").unwrap()),
        ];
        let text: String = recs.iter().map(|r| r.to_fasta_string(8)).collect();
        let back = parse_proteins(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn protein_fasta_rejects_dna_only_symbols_politely() {
        // '1' is not a residue.
        let err = parse_proteins(">p\nMK1\n").unwrap_err();
        assert!(err.to_string().contains("record \"p\""), "{err}");
        // Structural errors.
        assert!(parse_proteins("MKW\n").is_err());
        assert!(parse_proteins(">\nMKW\n").is_err());
        // Empty input is fine.
        assert!(parse_proteins("").unwrap().is_empty());
    }

    #[test]
    fn protein_file_round_trip() {
        use crate::seq::ProteinSeq;
        let dir = std::env::temp_dir().join("bioseq_pfasta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prot.fasta");
        let recs = vec![ProteinRecord::new(
            "p1",
            "",
            ProteinSeq::from_ascii(b"MKWVLLLF").unwrap(),
        )];
        write_file(&path, &recs).unwrap();
        assert_eq!(read_protein_file(&path).unwrap(), recs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bioseq_fasta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.fasta");
        let original = vec![rec("t1", "ACGTACGTNN"), rec("t2", "GGGG")];
        write_file(&path, &original).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, original);
        std::fs::remove_file(&path).ok();
    }
}
