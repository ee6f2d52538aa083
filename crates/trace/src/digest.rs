//! The repository's two deterministic mixing primitives, one copy each:
//! 64-bit FNV-1a for content digests (boot images, commit seals, lane
//! and state fingerprints, password hashing, ACL index keys) and
//! SplitMix64 for seeded, replayable pseudo-randomness (fault plans,
//! exemplar reservoirs, head sampling) and for hashing the kernel's
//! integer ids ([`IdMap`]).
//!
//! They live here because `mks-trace` sits at the bottom of the
//! dependency order and needs both itself; `mks-hw` re-exports them
//! under its historical paths. Everything is `#[inline]`, so hot paths
//! in other crates (commit sealing seals every operation) still inline
//! them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Streaming 64-bit FNV-1a. Feeding the same bytes in any split yields
/// the same digest, so callers hash an encoding piecewise as they write
/// it instead of concatenating it first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A digest of nothing: the offset basis.
    #[inline]
    pub const fn new() -> Fnv64 {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Resumes from a raw state — a salted basis, or a digest the caller
    /// post-mixed between rounds.
    #[inline]
    pub const fn from_state(state: u64) -> Fnv64 {
        Fnv64(state)
    }

    /// The byte step: folds each byte in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.word(u64::from(b));
        }
        self
    }

    /// The word step: folds a whole 64-bit word at once (xor, then
    /// multiply), for word-addressed images.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Fnv64 {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
        self
    }

    /// The digest so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// FNV-1a over one byte string.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// The SplitMix64 increment (the 64-bit golden-ratio constant), also
/// used on its own to scramble seeds.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer: a bijective avalanche of `z`. On
/// its own it is a stateless seeded coin (`mix(seq ^ seed)`).
#[inline]
pub(crate) const fn splitmix64_mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny deterministic generator (SplitMix64) for plan generation and
/// workload choices. Not for statistics — for replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    #[inline]
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        splitmix64_mix(self.0)
    }

    /// Uniform-ish value in `0..bound` (`bound` must be non-zero).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A hasher for kernel-assigned integer ids (pids, segment uids and
/// numbers, AST slots): each word is folded through the SplitMix64
/// finalizer, a bijective avalanche, so consecutive ids spread over the
/// whole table. One multiply-xorshift chain per word, where SipHash runs
/// its rounds and finalization: id keys are minted by the kernel, never
/// chosen by a caller, so flooding resistance buys nothing here. The
/// layout is identical in every process, like `mks_fs`'s `DetHashMap`.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings fold in 8-byte little-endian words (ids never take
    /// this path; it keeps the hasher total).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, w: u8) {
        self.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u16(&mut self, w: u16) {
        self.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0 = splitmix64_mix(self.0 ^ w);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
}

/// A `HashMap` keyed by kernel-assigned integer ids, hashed by
/// [`IdHasher`]. Names keep `mks_fs`'s fixed-key SipHash `DetHashMap`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The set form of [`IdMap`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_is_split_invariant_and_words_fold_whole() {
        let mut h = Fnv64::new();
        h.bytes(b"fo").bytes(b"").bytes(b"o186");
        h.bytes(b"r");
        assert_eq!(h.finish(), fnv64(b"foo186r"));
        // A byte is the word step over a value below 256.
        assert_eq!(Fnv64::new().word(u64::from(b'a')).finish(), fnv64(b"a"));
        assert_ne!(Fnv64::new().word(0x0102).finish(), fnv64(&[1, 2]));
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // First outputs of the reference implementation seeded with 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64_mix(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn id_hashes_are_one_mix_per_word_and_spread_consecutive_ids() {
        let hash = |k: &dyn Fn(&mut IdHasher)| {
            let mut h = IdHasher::default();
            k(&mut h);
            h.finish()
        };
        // Every integer width is the same word step.
        let w = hash(&|h| 7u64.hash(h));
        assert_eq!(w, splitmix64_mix(7));
        assert_eq!(hash(&|h| 7u32.hash(h)), w);
        assert_eq!(hash(&|h| 7u16.hash(h)), w);
        assert_eq!(hash(&|h| h.write(&7u64.to_le_bytes())), w);
        // Consecutive ids land in distinct low-bit buckets of a small table.
        let buckets: IdSet<u64> = (0..64u64).map(|i| hash(&|h| i.hash(h)) & 0xff).collect();
        assert!(buckets.len() > 32, "{} of 64", buckets.len());
        let mut m: IdMap<u32, &str> = IdMap::default();
        m.insert(3, "three");
        assert_eq!(m.get(&3), Some(&"three"));
    }
}
