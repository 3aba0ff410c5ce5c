//! Property-based tests for the translated aligner.

use bioseq::codon::reverse_translate;
use bioseq::seq::{DnaSeq, ProteinSeq};
use blastx::evalue::BLOSUM62_UNGAPPED;
use blastx::matrix::blosum62;
use blastx::search::{SearchParams, Searcher};
use blastx::tabular::{self, Reader, TabularError, TabularRecord};
use proptest::prelude::*;

fn protein_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ACDEFGHIKLMNPQRSTVWY]{30,100}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blosum_symmetry_over_all_bytes(a in 0u8..128, b in 0u8..128) {
        prop_assert_eq!(blosum62(a, b), blosum62(b, a));
    }

    #[test]
    fn self_score_dominates_cross_score(
        p in proptest::sample::select(&b"ACDEFGHIKLMNPQRSTVWY"[..]),
        q in proptest::sample::select(&b"ACDEFGHIKLMNPQRSTVWY"[..]),
    ) {
        // BLOSUM62 diagonal dominance: s(a,a) >= s(a,b).
        prop_assert!(blosum62(p, p) >= blosum62(p, q));
    }

    #[test]
    fn encoding_protein_makes_it_findable(p in protein_string(), codon_seed in 0usize..7) {
        let prot = ProteinSeq::from_ascii(p.as_bytes()).unwrap();
        let db = vec![("target".to_string(), prot.clone())];
        let searcher = Searcher::new(db, SearchParams::default()).unwrap();
        let dna = reverse_translate(&prot, |i| i.wrapping_mul(5).wrapping_add(codon_seed));
        let hits = searcher.search_one("q", &dna);
        prop_assert!(!hits.is_empty(), "an exact coding query must hit its protein");
        prop_assert_eq!(hits[0].subject_id.as_str(), "target");
        prop_assert!(hits[0].percent_identity > 99.0);
        // And the reverse complement must hit on a negative frame.
        let rc_hits = searcher.search_one("q_rc", &dna.reverse_complement());
        prop_assert!(!rc_hits.is_empty());
        prop_assert!(!rc_hits[0].frame.is_forward());
    }

    #[test]
    fn hit_coordinates_are_in_bounds(p in protein_string()) {
        let prot = ProteinSeq::from_ascii(p.as_bytes()).unwrap();
        let db = vec![("t".to_string(), prot.clone())];
        let searcher = Searcher::new(db, SearchParams::default()).unwrap();
        let dna = reverse_translate(&prot, |i| i);
        for h in searcher.search_one("q", &dna) {
            let (lo, hi) = (h.q_start.min(h.q_end), h.q_start.max(h.q_end));
            prop_assert!(lo >= 1 && hi <= dna.len());
            prop_assert!(h.s_start >= 1 && h.s_end <= prot.len());
            prop_assert!(h.s_start <= h.s_end);
            prop_assert!(h.evalue >= 0.0);
            prop_assert!(h.length >= 1);
            prop_assert!(h.percent_identity <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn evalue_monotone_in_score(s1 in 1i32..200, s2 in 1i32..200, m in 10usize..1000, n in 100usize..100_000) {
        let (lo, hi) = (s1.min(s2), s1.max(s2));
        prop_assert!(BLOSUM62_UNGAPPED.evalue(hi, m, n) <= BLOSUM62_UNGAPPED.evalue(lo, m, n));
        prop_assert!(BLOSUM62_UNGAPPED.bit_score(hi) >= BLOSUM62_UNGAPPED.bit_score(lo));
    }

    #[test]
    fn tabular_line_round_trip(
        q in "[A-Za-z0-9_]{1,16}", s in "[A-Za-z0-9_]{1,16}",
        pid in 0.0f64..100.0, len in 1usize..1000,
        mm in 0usize..100, gaps in 0usize..10,
        qs in 1usize..3000, qe in 1usize..3000,
        ss in 1usize..1000, se in 1usize..1000,
    ) {
        let rec = TabularRecord {
            query_id: q, subject_id: s,
            percent_identity: pid, length: len,
            mismatches: mm, gap_opens: gaps,
            q_start: qs, q_end: qe, s_start: ss, s_end: se,
            evalue: 3.1e-12, bit_score: 88.4,
        };
        let back = TabularRecord::parse_line(&rec.to_line()).unwrap();
        prop_assert_eq!(&back.query_id, &rec.query_id);
        prop_assert_eq!(&back.subject_id, &rec.subject_id);
        prop_assert_eq!(back.length, rec.length);
        prop_assert_eq!(back.mismatches, rec.mismatches);
        prop_assert_eq!(back.gap_opens, rec.gap_opens);
        prop_assert_eq!(back.q_start, rec.q_start);
        prop_assert_eq!(back.q_end, rec.q_end);
        prop_assert!((back.percent_identity - rec.percent_identity).abs() < 0.01);
    }

    #[test]
    fn smith_waterman_dominates_xdrop(p in protein_string(), mutate_at in 0usize..30) {
        use blastx::align::{local_align, GapParams};
        use blastx::extend::xdrop_extend;
        let q = p.as_bytes();
        let mut s = q.to_vec();
        if !s.is_empty() {
            let i = mutate_at % s.len();
            s[i] = if s[i] == b'A' { b'G' } else { b'A' };
        }
        let sw = local_align(q, &s, GapParams::default());
        if q.len() >= 4 {
            let ext = xdrop_extend(q, &s, 0, 0, 4, 20);
            prop_assert!(sw.score >= ext.score,
                "exact {} < heuristic {}", sw.score, ext.score);
        }
        // Score symmetry under argument swap (BLOSUM62 is symmetric).
        let sw_rev = local_align(&s, q, GapParams::default());
        prop_assert_eq!(sw.score, sw_rev.score);
    }

    #[test]
    fn smith_waterman_cigar_is_consistent(p in protein_string(), q in protein_string()) {
        use blastx::align::{local_align, CigarOp, GapParams};
        let a = local_align(p.as_bytes(), q.as_bytes(), GapParams::default());
        let q_cols: usize = a.cigar.iter()
            .filter(|(_, op)| matches!(op, CigarOp::AlignedPair | CigarOp::Insertion))
            .map(|(n, _)| n).sum();
        let s_cols: usize = a.cigar.iter()
            .filter(|(_, op)| matches!(op, CigarOp::AlignedPair | CigarOp::Deletion))
            .map(|(n, _)| n).sum();
        prop_assert_eq!(q_cols, a.query_range.1 - a.query_range.0);
        prop_assert_eq!(s_cols, a.subject_range.1 - a.subject_range.0);
        prop_assert!(a.identities <= a.length());
        prop_assert!(a.score >= 0);
        prop_assert!(a.query_range.1 <= p.len());
        prop_assert!(a.subject_range.1 <= q.len());
    }

    #[test]
    fn parallel_equals_serial_search(p in protein_string(), k in 2usize..5) {
        let prot = ProteinSeq::from_ascii(p.as_bytes()).unwrap();
        let db = vec![("t".to_string(), prot.clone())];
        let searcher = Searcher::new(db, SearchParams::default()).unwrap();
        let queries: Vec<(String, DnaSeq)> = (0..k)
            .map(|i| (format!("q{i}"), reverse_translate(&prot, |j| j + i)))
            .collect();
        prop_assert_eq!(
            searcher.search_many(&queries, 1),
            searcher.search_many(&queries, 4)
        );
    }
}

/// One drawn line of tabular text: a hit of query `t<q>` (of six, so
/// queries repeat) on protein `p<s>` with bit score `bits`, a `#`
/// comment or a blank line.
#[derive(Debug, Clone)]
enum DrawnLine {
    Hit(usize, usize, u32),
    Comment,
    Blank,
}

fn drawn_lines() -> impl Strategy<Value = Vec<DrawnLine>> {
    let line =
        (0usize..8, 0usize..6, 0usize..4, 1u32..400).prop_map(|(kind, q, s, bits)| match kind {
            6 => DrawnLine::Comment,
            7 => DrawnLine::Blank,
            _ => DrawnLine::Hit(q, s, bits),
        });
    proptest::collection::vec(line, 0..24)
}

/// A row `parse_line` refuses: too few columns, or a bad number.
fn malformed_row() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec![
        "t0\tp0\t99.0",
        "t1\tp1\tninety\t80\t1\t0\t2\t241\t1\t80\t3e-42\t170.3",
        "t2\tp2\t99.0\t80\t1\t0\t2\t241\t1\t80\t3e-42\tbits",
    ])
}

/// Renders drawn lines as tabular text, with Windows line endings when
/// `crlf`.
fn tabular_text(lines: &[DrawnLine], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut text = String::new();
    for line in lines {
        match line {
            DrawnLine::Hit(q, s, bits) => text.push_str(&format!(
                "t{q}\tp{s}\t98.50\t80\t1\t0\t2\t241\t1\t80\t3.20e-42\t{bits}.0"
            )),
            DrawnLine::Comment => text.push_str("# BLASTX 2.2.28+"),
            DrawnLine::Blank => {}
        }
        text.push_str(eol);
    }
    text
}

/// Writes `text` to a fresh file under the temp directory.
fn tabular_file(text: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("blastx_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("hits_{n}.tsv"));
    std::fs::write(&path, text).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collecting_the_reader_is_read_file(lines in drawn_lines(), crlf in any::<bool>()) {
        let text = tabular_text(&lines, crlf);
        let path = tabular_file(&text);
        let streamed: Vec<TabularRecord> = Reader::new(text.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        let hits = lines.iter().filter(|l| matches!(l, DrawnLine::Hit(..))).count();
        prop_assert_eq!(streamed.len(), hits);
        prop_assert_eq!(tabular::read_file(&path).unwrap(), streamed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_malformed_row_is_the_same_error_at_its_line_through_either_face(
        lines in drawn_lines(),
        crlf in any::<bool>(),
        at in 0usize..24,
        row in malformed_row(),
    ) {
        let at = at % (lines.len() + 1);
        let eol = if crlf { "\r\n" } else { "\n" };
        let text = tabular_text(&lines[..at], crlf) + row + eol + &tabular_text(&lines[at..], crlf);
        let path = tabular_file(&text);
        let want = TabularError::AtLine(at + 1, Box::new(TabularRecord::parse_line(row).unwrap_err()));
        let streamed = Reader::new(text.as_bytes()).collect::<Result<Vec<_>, _>>();
        prop_assert_eq!(streamed, Err(want));
        let streamed = Reader::new(text.as_bytes()).collect::<Result<Vec<_>, _>>();
        prop_assert_eq!(tabular::read_file(&path), streamed);
        std::fs::remove_file(&path).ok();
    }
}
