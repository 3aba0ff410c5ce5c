//! Property-based tests for the sequence substrate.

use bioseq::codon::{reverse_translate, translate_frame};
use bioseq::error::BioError;
use bioseq::fasta::{self, Reader, Record};
use bioseq::kmer;
use bioseq::seq::{DnaSeq, ProteinSeq};
use bioseq::stats::assembly_stats;
use proptest::prelude::*;

fn dna_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ACGTN]{0,200}").expect("valid regex")
}

fn canonical_dna_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ACGT]{1,200}").expect("valid regex")
}

fn protein_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ACDEFGHIKLMNPQRSTVWY]{1,120}").expect("valid regex")
}

fn fasta_id() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9_.:-]{1,24}").expect("valid regex")
}

/// One drawn record: an id out of six (so ids repeat), its body, the
/// body's line width, whether the header carries a description and
/// whether a blank line follows the record.
type Drawn = (usize, String, usize, bool, bool);

fn drawn_records(min: usize) -> impl Strategy<Value = Vec<Drawn>> {
    proptest::collection::vec(
        (
            0usize..6,
            dna_string(),
            1usize..70,
            any::<bool>(),
            any::<bool>(),
        ),
        min..10,
    )
}

/// Renders drawn records as FASTA text with multi-line bodies, blank
/// lines and, when `crlf`, Windows line endings.
fn fasta_text(records: &[Drawn], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut text = String::new();
    for (id, body, width, desc, blank) in records {
        text.push_str(&format!(">t{id}"));
        if *desc {
            text.push_str(" a description");
        }
        text.push_str(eol);
        for line in body.as_bytes().chunks(*width) {
            text.push_str(std::str::from_utf8(line).expect("ASCII body"));
            text.push_str(eol);
        }
        if *blank {
            text.push_str(eol);
        }
    }
    text
}

/// Writes `text` to a fresh file under the temp directory.
fn fasta_file(text: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bioseq_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("walk_{n}.fasta"));
    std::fs::write(&path, text).unwrap();
    path
}

/// The filtered walk: every record whose id `keep` accepts, in order.
fn walk(path: &std::path::Path, keep: impl Fn(&str) -> bool) -> Result<Vec<Record>, BioError> {
    let mut reader = Reader::open(path)?;
    let mut out = Vec::new();
    while let Some(rec) = reader.next_where(&keep)? {
        out.push(rec);
    }
    Ok(out)
}

/// The ids bit `i` of `mask` keeps: `t<i>`.
fn kept_by(mask: u8) -> impl Fn(&str) -> bool {
    move |id: &str| {
        id.strip_prefix('t')
            .and_then(|i| i.parse::<u32>().ok())
            .is_some_and(|i| mask & (1 << i) != 0)
    }
}

proptest! {
    #[test]
    fn reverse_complement_is_involution(s in dna_string()) {
        let seq = DnaSeq::from_ascii(s.as_bytes()).unwrap();
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn reverse_complement_preserves_length_and_gc(s in dna_string()) {
        let seq = DnaSeq::from_ascii(s.as_bytes()).unwrap();
        let rc = seq.reverse_complement();
        prop_assert_eq!(rc.len(), seq.len());
        // G+C count is strand-symmetric.
        prop_assert!((rc.gc_content() - seq.gc_content()).abs() < 1e-12);
        prop_assert_eq!(rc.n_count(), seq.n_count());
    }

    #[test]
    fn fasta_round_trip(ids in proptest::collection::vec(fasta_id(), 0..8),
                        seqs in proptest::collection::vec(dna_string(), 0..8),
                        width in 1usize..100) {
        let records: Vec<Record> = ids
            .iter()
            .zip(&seqs)
            .enumerate()
            .map(|(i, (id, s))| {
                Record::new(
                    format!("{id}_{i}"), // unique ids
                    "",
                    DnaSeq::from_ascii(s.as_bytes()).unwrap(),
                )
            })
            .collect();
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_fasta_string(width));
        }
        let parsed = fasta::parse_str(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn kmer_pack_unpack_round_trip(s in canonical_dna_string(), k in 1usize..33) {
        let bytes = s.as_bytes();
        if bytes.len() >= k {
            for (pos, packed) in kmer::KmerIter::new(bytes, k).unwrap() {
                prop_assert_eq!(&kmer::unpack(packed, k)[..], &bytes[pos..pos + k]);
            }
        }
    }

    #[test]
    fn kmer_count_matches_window_count(s in canonical_dna_string(), k in 1usize..33) {
        let bytes = s.as_bytes();
        let count = kmer::KmerIter::new(bytes, k).unwrap().count();
        let expected = bytes.len().saturating_sub(k - 1);
        prop_assert_eq!(count, expected);
    }

    #[test]
    fn translation_length_law(s in canonical_dna_string(), off in 0usize..3) {
        let dna = DnaSeq::from_ascii(s.as_bytes()).unwrap();
        let prot = translate_frame(&dna, off);
        prop_assert_eq!(prot.len(), dna.len().saturating_sub(off) / 3);
    }

    #[test]
    fn reverse_translate_round_trips(p in protein_string(), pick in 0usize..16) {
        let prot = ProteinSeq::from_ascii(p.as_bytes()).unwrap();
        let dna = reverse_translate(&prot, |i| i.wrapping_mul(31).wrapping_add(pick));
        prop_assert_eq!(dna.len(), prot.len() * 3);
        prop_assert_eq!(translate_frame(&dna, 0), prot);
    }

    #[test]
    fn n50_bounds(seqs in proptest::collection::vec(canonical_dna_string(), 1..20)) {
        let records: Vec<Record> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Record::new(format!("s{i}"), "", DnaSeq::from_ascii(s.as_bytes()).unwrap()))
            .collect();
        let stats = assembly_stats(&records);
        prop_assert!(stats.n50 >= stats.min_len);
        prop_assert!(stats.n50 <= stats.max_len);
        prop_assert_eq!(stats.count, records.len());
        let mean_gap = stats.mean_len * records.len() as f64 - stats.total_len as f64;
        prop_assert!(mean_gap.abs() < 1e-6);
    }

    #[test]
    fn invalid_bytes_always_rejected(s in "[acgtnACGTN]{0,20}[!-@]{1}[acgtnACGTN]{0,20}") {
        prop_assert!(DnaSeq::from_ascii(s.as_bytes()).is_err());
    }

    #[test]
    fn filtered_walk_is_read_file_filtered(records in drawn_records(0),
                                          crlf in any::<bool>(),
                                          mask in any::<u8>()) {
        let path = fasta_file(&fasta_text(&records, crlf));
        let keep = kept_by(mask);
        let expected: Vec<Record> = fasta::read_file(&path)
            .unwrap()
            .into_iter()
            .filter(|r| keep(&r.id))
            .collect();
        prop_assert_eq!(walk(&path, &keep).unwrap(), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_base_in_a_kept_record_is_malformed_at_its_line(
        records in drawn_records(1),
        crlf in any::<bool>(),
        mask in any::<u8>(),
        (pick, offset) in (0usize..10, 0usize..200),
    ) {
        let (mut records, k) = (records.clone(), pick % records.len());
        let body = &mut records[k].1;
        body.insert(offset % (body.len() + 1), 'Z');
        let path = fasta_file(&fasta_text(&records, crlf));
        let bad = format!("t{}", records[k].0);
        let keep = |id: &str| id == bad || kept_by(mask)(id);
        let line_of = |e: BioError| match e {
            BioError::MalformedFasta { line, .. } => Some(line),
            _ => None,
        };
        let full = fasta::read_file(&path).map(|_| ()).map_err(line_of);
        let filtered = walk(&path, keep).map(|_| ()).map_err(line_of);
        prop_assert!(matches!(full, Err(Some(_))), "read_file must refuse the bad base: {:?}", full);
        prop_assert_eq!(filtered, full);
        std::fs::remove_file(&path).ok();
    }
}
