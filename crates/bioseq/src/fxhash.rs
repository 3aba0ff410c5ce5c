//! A fast, non-cryptographic hasher for hot integer-keyed maps.
//!
//! cap3's k-mer indexes and the aligner's per-query dedupe set are the
//! hottest hash maps in the stack, keyed by small integers; SipHash
//! (std's default, HashDoS-resistant) is measurably slower there. This
//! is the Fx algorithm used by rustc (rotate–xor–multiply per word),
//! implemented locally because the repository's dependency list is
//! closed.
//!
//! Use only for internal maps whose keys are not attacker-controlled.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"ACGT"), h(b"ACGT"));
        assert_ne!(h(b"ACGT"), h(b"ACGA"));
        assert_ne!(h(b"ACGT"), h(b"TGCA"));
        // Like rustc's Fx, trailing zero bytes are not distinguished
        // from absence (`h("") == h("\0")`): acceptable for the
        // fixed-width integer keys these maps use.
    }

    #[test]
    fn integer_writes_differ_from_each_other() {
        let mut a = FxHasher::default();
        a.write_u64(1);
        let mut b = FxHasher::default();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i.wrapping_mul(0x9E3779B9), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&0], 0);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&42));
    }

    #[test]
    fn distribution_is_reasonable_for_packed_kmers() {
        // Bucket 10k packed 16-mers into 64 buckets by hash; no bucket
        // should be wildly over-loaded.
        let mut buckets = [0usize; 64];
        for i in 0..10_000u64 {
            let kmer = i.wrapping_mul(0x0123_4567_89ab_cdef) & 0xFFFF_FFFF;
            let mut h = FxHasher::default();
            h.write_u64(kmer);
            buckets[(h.finish() % 64) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        assert!(max < 3 * (10_000 / 64), "max bucket {max}");
        assert!(min > 0, "empty bucket");
    }
}
