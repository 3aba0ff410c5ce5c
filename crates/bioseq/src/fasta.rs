//! FASTA reading and writing.
//!
//! The workflow tasks exchange transcript sets as FASTA files
//! (`transcripts.fasta`, per-cluster inputs, CAP3 contig outputs), so
//! the reader is stream-oriented and tolerant of the formatting found
//! in real pipelines: multi-line bodies, blank lines between records,
//! Windows line endings, and descriptions after the identifier.

use crate::error::{BioError, Result};
use crate::seq::DnaSeq;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// A single FASTA record: identifier, optional description, sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Identifier: the header token up to the first whitespace.
    pub id: String,
    /// Remainder of the header line (may be empty).
    pub desc: String,
    /// The sequence body.
    pub seq: DnaSeq,
}

impl Record {
    /// Creates a record from parts.
    pub fn new(id: impl Into<String>, desc: impl Into<String>, seq: DnaSeq) -> Self {
        Record {
            id: id.into(),
            desc: desc.into(),
            seq,
        }
    }

    /// Renders the record as FASTA, wrapping the body at `width`
    /// columns (`0` means no wrapping).
    pub fn to_fasta_string(&self, width: usize) -> String {
        let mut out = String::with_capacity(self.seq.len() + self.id.len() + 16);
        out.push('>');
        out.push_str(&self.id);
        if !self.desc.is_empty() {
            out.push(' ');
            out.push_str(&self.desc);
        }
        out.push('\n');
        let body = self.seq.as_bytes();
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

/// Streaming FASTA reader over any [`Read`].
pub(crate) struct Reader<R: Read> {
    inner: BufReader<R>,
    /// Header line of the next record, if we have already consumed it.
    pending_header: Option<String>,
    line_no: usize,
    finished: bool,
}

impl<R: Read> Reader<R> {
    /// Wraps a reader.
    pub(crate) fn new(inner: R) -> Self {
        Reader {
            inner: BufReader::new(inner),
            pending_header: None,
            line_no: 0,
            finished: false,
        }
    }

    fn read_trimmed_line(&mut self, buf: &mut String) -> Result<usize> {
        buf.clear();
        let n = self.inner.read_line(buf)?;
        if n > 0 {
            self.line_no += 1;
            while buf.ends_with('\n') || buf.ends_with('\r') {
                buf.pop();
            }
        }
        Ok(n)
    }

    /// Reads the next record, or `Ok(None)` at end of input.
    pub(crate) fn next_record(&mut self) -> Result<Option<Record>> {
        if self.finished {
            return Ok(None);
        }
        let mut line = String::new();
        // Find the header: either one we already consumed, or scan
        // forward over blank lines.
        let header = loop {
            if let Some(h) = self.pending_header.take() {
                break h;
            }
            let n = self.read_trimmed_line(&mut line)?;
            if n == 0 {
                self.finished = true;
                return Ok(None);
            }
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('>') {
                break rest.to_string();
            }
            return Err(BioError::MalformedFasta {
                line: self.line_no,
                reason: format!("expected '>' header, found {:?}", line),
            });
        };
        if header.trim().is_empty() {
            return Err(BioError::MalformedFasta {
                line: self.line_no,
                reason: "empty header".into(),
            });
        }
        let (id, desc) = match header.split_once(char::is_whitespace) {
            Some((id, desc)) => (id.to_string(), desc.trim().to_string()),
            None => (header.clone(), String::new()),
        };

        let mut body: Vec<u8> = Vec::new();
        loop {
            let n = self.read_trimmed_line(&mut line)?;
            if n == 0 {
                self.finished = true;
                break;
            }
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('>') {
                self.pending_header = Some(rest.to_string());
                break;
            }
            body.extend_from_slice(line.as_bytes());
        }
        let seq = DnaSeq::from_ascii(&body).map_err(|e| match e {
            BioError::InvalidBase { byte, pos } => BioError::MalformedFasta {
                line: self.line_no,
                reason: format!(
                    "record {id:?}: invalid base 0x{byte:02x} at sequence offset {pos}"
                ),
            },
            other => other,
        })?;
        Ok(Some(Record { id, desc, seq }))
    }

    /// Collects every remaining record.
    pub(crate) fn read_all(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

impl<R: Read> Iterator for Reader<R> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// A protein FASTA record (amino-acid alphabet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteinRecord {
    /// Identifier: the header token up to the first whitespace.
    pub id: String,
    /// Remainder of the header line (may be empty).
    pub(crate) desc: String,
    /// The residues.
    pub seq: crate::seq::ProteinSeq,
}

impl ProteinRecord {
    /// Creates a protein record from parts.
    pub fn new(
        id: impl Into<String>,
        desc: impl Into<String>,
        seq: crate::seq::ProteinSeq,
    ) -> Self {
        ProteinRecord {
            id: id.into(),
            desc: desc.into(),
            seq,
        }
    }

    /// Renders the record as FASTA wrapped at `width` (`0` = one line).
    pub(crate) fn to_fasta_string(&self, width: usize) -> String {
        let mut out = String::with_capacity(self.seq.len() + self.id.len() + 16);
        out.push('>');
        out.push_str(&self.id);
        if !self.desc.is_empty() {
            out.push(' ');
            out.push_str(&self.desc);
        }
        out.push('\n');
        let body = self.seq.as_bytes();
        if width == 0 {
            out.push_str(std::str::from_utf8(body).expect("residues are ASCII"));
            out.push('\n');
        } else {
            for chunk in body.chunks(width) {
                out.push_str(std::str::from_utf8(chunk).expect("residues are ASCII"));
                out.push('\n');
            }
        }
        out
    }
}

/// Parses protein FASTA from a string. Protein records share the DNA
/// reader's structural rules; only the alphabet differs.
pub(crate) fn parse_protein_str(s: &str) -> Result<Vec<ProteinRecord>> {
    // Reuse the structural scanner by treating bodies as raw bytes:
    // scan headers/bodies with a permissive pass, then validate
    // residues.
    let mut out = Vec::new();
    let lines = s.lines().enumerate().peekable();
    let mut current: Option<(usize, String, String, Vec<u8>)> = None;
    let flush = |cur: &mut Option<(usize, String, String, Vec<u8>)>,
                 out: &mut Vec<ProteinRecord>|
     -> Result<()> {
        if let Some((line, id, desc, body)) = cur.take() {
            let seq = crate::seq::ProteinSeq::from_ascii(&body).map_err(|e| {
                BioError::MalformedFasta {
                    line,
                    reason: format!("record {id:?}: {e}"),
                }
            })?;
            out.push(ProteinRecord { id, desc, seq });
        }
        Ok(())
    };
    for (idx, raw) in lines {
        let line = raw.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('>') {
            flush(&mut current, &mut out)?;
            if rest.trim().is_empty() {
                return Err(BioError::MalformedFasta {
                    line: idx + 1,
                    reason: "empty header".into(),
                });
            }
            let (id, desc) = match rest.split_once(char::is_whitespace) {
                Some((i, d)) => (i.to_string(), d.trim().to_string()),
                None => (rest.to_string(), String::new()),
            };
            current = Some((idx + 1, id, desc, Vec::new()));
        } else {
            match &mut current {
                Some((_, _, _, body)) => body.extend_from_slice(line.as_bytes()),
                None => {
                    return Err(BioError::MalformedFasta {
                        line: idx + 1,
                        reason: format!("expected '>' header, found {line:?}"),
                    })
                }
            }
        }
    }
    flush(&mut current, &mut out)?;
    Ok(out)
}

/// Reads a protein FASTA file from disk.
pub fn read_protein_file(path: impl AsRef<Path>) -> Result<Vec<ProteinRecord>> {
    let text = std::fs::read_to_string(path)?;
    parse_protein_str(&text)
}

/// Writes protein records to a FASTA file (60-column bodies).
pub fn write_protein_file(path: impl AsRef<Path>, records: &[ProteinRecord]) -> Result<()> {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_fasta_string(60));
    }
    std::fs::write(path, out)?;
    Ok(())
}

/// Parses every record from an in-memory FASTA string.
pub fn parse_str(s: &str) -> Result<Vec<Record>> {
    Reader::new(s.as_bytes()).read_all()
}

/// Reads every record from a FASTA file on disk.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<Record>> {
    let f = std::fs::File::open(path)?;
    Reader::new(f).read_all()
}

/// Writes records to any [`Write`], wrapping bodies at `width` columns.
pub(crate) fn write_records<W: Write>(mut w: W, records: &[Record], width: usize) -> Result<()> {
    for rec in records {
        w.write_all(rec.to_fasta_string(width).as_bytes())?;
    }
    Ok(())
}

/// Writes records to a FASTA file, wrapping bodies at 60 columns.
pub fn write_file(path: impl AsRef<Path>, records: &[Record]) -> Result<()> {
    let f = std::fs::File::create(path)?;
    let mut buf = std::io::BufWriter::new(f);
    write_records(&mut buf, records, 60)?;
    buf.flush()?;
    Ok(())
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
        let back = parse_protein_str(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn protein_fasta_rejects_dna_only_symbols_politely() {
        // '1' is not a residue.
        let err = parse_protein_str(">p\nMK1\n").unwrap_err();
        assert!(err.to_string().contains("p"), "{err}");
        // Structural errors.
        assert!(parse_protein_str("MKW\n").is_err());
        assert!(parse_protein_str(">\nMKW\n").is_err());
        // Empty input is fine.
        assert!(parse_protein_str("").unwrap().is_empty());
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
        write_protein_file(&path, &recs).unwrap();
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
