//! The assembly driver: candidate generation, overlap detection,
//! layout, consensus.

use crate::consensus::consensus;
use crate::layout::layout_groups;
use crate::overlap::{detect, Overlap};
use crate::params::{Cap3Params, MAX_BUCKET, SEED_K};
use bioseq::fasta::Record;
use bioseq::fxhash::{FxHashMap, FxHashSet};
use bioseq::kmer::KmerIter;
use bioseq::seq::DnaSeq;

/// Result of an assembly run: merged contigs and untouched singlets,
/// mirroring CAP3's `.cap.contigs` and `.cap.singlets` files.
#[derive(Debug, Clone, PartialEq)]
pub struct Assembly {
    /// Consensus contigs (`Contig1`, `Contig2`, ... in input order of
    /// their earliest read).
    pub contigs: Vec<Record>,
    /// Reads that joined no contig, unchanged.
    pub singlets: Vec<Record>,
}

impl Assembly {
    /// Contigs followed by singlets — the concatenation blast2cap3
    /// performs after each CAP3 invocation.
    pub fn all_records(&self) -> Vec<Record> {
        let mut out = self.contigs.clone();
        out.extend(self.singlets.iter().cloned());
        out
    }

    /// Total output sequence count.
    pub fn output_count(&self) -> usize {
        self.contigs.len() + self.singlets.len()
    }
}

/// A reusable CAP3-like assembler.
#[derive(Debug, Clone)]
pub struct Assembler {
    params: Cap3Params,
}

impl Assembler {
    /// Creates an assembler with the given cutoffs.
    ///
    /// # Panics
    /// Panics if the parameters fail [`Cap3Params::validate`]; use
    /// validated parameters for fallible construction.
    pub fn new(params: Cap3Params) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid Cap3Params: {msg}");
        }
        Assembler { params }
    }

    /// Generates candidate pairs `(i, j, flip)` with `i < j` via
    /// shared k-mers (forward) and shared reverse-complement k-mers
    /// (flipped).
    fn candidates(&self, reads: &[Record]) -> Vec<(u32, u32, bool)> {
        let k = SEED_K;
        // Global k-mer index: kmer -> reads containing it (deduped).
        let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (i, rec) in reads.iter().enumerate() {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            if let Ok(it) = KmerIter::new(rec.seq.as_bytes(), k) {
                for (_, km) in it {
                    if seen.insert(km) {
                        index.entry(km).or_default().push(i as u32);
                    }
                }
            }
        }
        let mut pairs: FxHashSet<(u32, u32, bool)> = FxHashSet::default();
        for (i, rec) in reads.iter().enumerate() {
            let i = i as u32;
            // Forward-forward sharing.
            if let Ok(it) = KmerIter::new(rec.seq.as_bytes(), k) {
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                for (_, km) in it {
                    if !seen.insert(km) {
                        continue;
                    }
                    if let Some(list) = index.get(&km) {
                        if list.len() > MAX_BUCKET {
                            continue;
                        }
                        for &j in list {
                            if j > i {
                                pairs.insert((i, j, false));
                            }
                        }
                    }
                }
            }
            // Forward(i) vs reverse(j): i's RC k-mers hit j's forward index.
            let rc = rec.seq.reverse_complement();
            if let Ok(it) = KmerIter::new(rc.as_bytes(), k) {
                let mut seen: FxHashSet<u64> = FxHashSet::default();
                for (_, km) in it {
                    if !seen.insert(km) {
                        continue;
                    }
                    if let Some(list) = index.get(&km) {
                        if list.len() > MAX_BUCKET {
                            continue;
                        }
                        for &j in list {
                            if j != i {
                                let (lo, hi) = (i.min(j), i.max(j));
                                pairs.insert((lo, hi, true));
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, u32, bool)> = pairs.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Assembles `reads` into contigs and singlets.
    pub fn assemble(&self, reads: &[Record]) -> Assembly {
        if reads.is_empty() {
            return Assembly {
                contigs: Vec::new(),
                singlets: Vec::new(),
            };
        }
        let seqs: Vec<&DnaSeq> = reads.iter().map(|r| &r.seq).collect();
        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();

        let mut overlaps: Vec<Overlap> = Vec::new();
        for (i, j, flip) in self.candidates(reads) {
            let a = seqs[i as usize].as_bytes();
            let found = if flip {
                let rc_j = seqs[j as usize].reverse_complement();
                detect(a, rc_j.as_bytes(), i, j, true, &self.params)
            } else {
                detect(a, seqs[j as usize].as_bytes(), i, j, false, &self.params)
            };
            if let Some(ov) = found {
                overlaps.push(ov);
            }
        }

        let (layouts, singlet_ids) = layout_groups(&lens, &overlaps);
        let owned_seqs: Vec<DnaSeq> = reads.iter().map(|r| r.seq.clone()).collect();
        let contigs: Vec<Record> = layouts
            .iter()
            .enumerate()
            .map(|(n, layout)| {
                let members: Vec<&str> = layout
                    .placements
                    .iter()
                    .map(|p| reads[p.read as usize].id.as_str())
                    .collect();
                Record::new(
                    format!("Contig{}", n + 1),
                    format!("reads={}", members.join(",")),
                    consensus(layout, &owned_seqs),
                )
            })
            .collect();
        let singlets: Vec<Record> = singlet_ids
            .iter()
            .map(|&i| reads[i as usize].clone())
            .collect();
        Assembly { contigs, singlets }
    }
}

impl Default for Assembler {
    fn default() -> Self {
        Assembler::new(Cap3Params::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_template(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| bioseq::alphabet::DNA_BASES[rng.gen_range(0..4)])
            .collect()
    }

    fn rec(id: &str, bytes: &[u8]) -> Record {
        Record::new(id, "", DnaSeq::from_ascii(bytes).unwrap())
    }

    #[test]
    fn empty_input_gives_empty_assembly() {
        let asm = Assembler::default().assemble(&[]);
        assert!(asm.contigs.is_empty());
        assert!(asm.singlets.is_empty());
        assert_eq!(asm.output_count(), 0);
    }

    #[test]
    fn lone_read_is_a_singlet() {
        let t = random_template(1, 100);
        let asm = Assembler::default().assemble(&[rec("only", &t)]);
        assert!(asm.contigs.is_empty());
        assert_eq!(asm.singlets.len(), 1);
        assert_eq!(asm.singlets[0].id, "only");
    }

    #[test]
    fn two_overlapping_fragments_merge_exactly() {
        let t = random_template(2, 300);
        let a = rec("a", &t[..200]);
        let b = rec("b", &t[140..]);
        let asm = Assembler::default().assemble(&[a, b]);
        assert_eq!(asm.contigs.len(), 1);
        assert!(asm.singlets.is_empty());
        assert_eq!(asm.contigs[0].seq.as_bytes(), &t[..]);
        assert!(asm.contigs[0].desc.contains("a"));
        assert!(asm.contigs[0].desc.contains("b"));
    }

    #[test]
    fn three_fragments_tile_into_one_contig() {
        let t = random_template(3, 500);
        let frags = [
            rec("f0", &t[..220]),
            rec("f1", &t[150..380]),
            rec("f2", &t[320..]),
        ];
        let asm = Assembler::default().assemble(&frags);
        assert_eq!(asm.contigs.len(), 1);
        assert_eq!(asm.contigs[0].seq.as_bytes(), &t[..]);
    }

    #[test]
    fn reverse_complement_fragment_still_merges() {
        let t = random_template(4, 300);
        let a = rec("a", &t[..200]);
        let b_fwd = DnaSeq::from_ascii(&t[140..]).unwrap();
        let b = Record::new("b", "", b_fwd.reverse_complement());
        let asm = Assembler::default().assemble(&[a, b]);
        assert_eq!(asm.contigs.len(), 1, "rc fragment must merge");
        let c = &asm.contigs[0].seq;
        // Consensus equals the template or its reverse complement.
        assert!(
            c.as_bytes() == &t[..] || c.reverse_complement().as_bytes() == &t[..],
            "consensus differs from template"
        );
    }

    #[test]
    fn unrelated_reads_stay_separate() {
        let a = rec("a", &random_template(5, 200));
        let b = rec("b", &random_template(6, 200));
        let asm = Assembler::default().assemble(&[a, b]);
        assert!(asm.contigs.is_empty());
        assert_eq!(asm.singlets.len(), 2);
    }

    #[test]
    fn identity_cutoff_blocks_noisy_overlaps() {
        let t = random_template(7, 300);
        let a = rec("a", &t[..200]);
        // Corrupt the shared region heavily (~20% substitutions).
        let mut noisy = t[140..].to_vec();
        let mut rng = StdRng::seed_from_u64(8);
        for base in noisy.iter_mut().take(60) {
            if rng.gen_bool(0.2) {
                *base = if *base == b'A' { b'C' } else { b'A' };
            }
        }
        let b = rec("b", &noisy);
        let strict = Assembler::new(Cap3Params {
            min_overlap_identity: 99.0,
            ..Default::default()
        });
        let asm = strict.assemble(&[a, b]);
        assert_eq!(asm.contigs.len(), 0, "99% cutoff must reject noisy join");
    }

    #[test]
    fn two_families_assemble_independently() {
        let t1 = random_template(9, 300);
        let t2 = random_template(10, 300);
        let reads = [
            rec("x0", &t1[..200]),
            rec("x1", &t1[120..]),
            rec("y0", &t2[..200]),
            rec("y1", &t2[120..]),
        ];
        let asm = Assembler::default().assemble(&reads);
        assert_eq!(asm.contigs.len(), 2);
        assert!(asm.singlets.is_empty());
        let consensi: Vec<&[u8]> = asm.contigs.iter().map(|c| c.seq.as_bytes()).collect();
        assert!(consensi.contains(&&t1[..]));
        assert!(consensi.contains(&&t2[..]));
    }

    #[test]
    fn contained_read_is_absorbed() {
        let t = random_template(11, 300);
        let outer = rec("outer", &t);
        let inner = rec("inner", &t[80..200]);
        let asm = Assembler::default().assemble(&[outer, inner]);
        assert_eq!(asm.contigs.len(), 1);
        assert_eq!(asm.contigs[0].seq.as_bytes(), &t[..]);
    }

    #[test]
    fn output_count_reduces_with_redundancy() {
        // Paper section II: blast2cap3 reduces transcript count by
        // merging redundant fragments; verify the mechanism here.
        let t = random_template(12, 600);
        let reads: Vec<Record> = (0..6)
            .map(|i| {
                let start = i * 80;
                rec(&format!("r{i}"), &t[start..(start + 200).min(600)])
            })
            .collect();
        let asm = Assembler::default().assemble(&reads);
        assert!(asm.output_count() < reads.len());
        assert_eq!(asm.contigs.len(), 1);
    }

    #[test]
    fn unequal_length_flipped_fragments_assemble() {
        // Exercises the reversed-edge algebra with asymmetric lengths:
        // three fragments of different sizes, the middle one reverse
        // complemented, presented middle-first so the BFS root is the
        // flipped read.
        let t = random_template(77, 600);
        let middle_fwd = DnaSeq::from_ascii(&t[150..430]).unwrap(); // 280 bp
        let reads = vec![
            Record::new("mid_rc", "", middle_fwd.reverse_complement()),
            Record::new("left", "", DnaSeq::from_ascii(&t[..220]).unwrap()), // 220 bp
            Record::new("right", "", DnaSeq::from_ascii(&t[360..]).unwrap()), // 240 bp
        ];
        let asm = Assembler::default().assemble(&reads);
        assert_eq!(asm.contigs.len(), 1, "all three must merge");
        assert!(asm.singlets.is_empty());
        let c = &asm.contigs[0].seq;
        assert!(
            c.as_bytes() == &t[..] || c.reverse_complement().as_bytes() == &t[..],
            "consensus must reconstruct the template"
        );
    }

    #[test]
    #[should_panic(expected = "invalid Cap3Params")]
    fn invalid_params_panic_on_construction() {
        let _ = Assembler::new(Cap3Params {
            min_overlap_len: 0,
            ..Default::default()
        });
    }
}
