//! Fundamental machine quantities: 36-bit words and segment identity.

/// A 36-bit Multics machine word, stored in the low bits of a `u64`.
///
/// The simulator does not interpret word contents except where the layers
/// above give them meaning (page contents, link snapshots, object code).
/// [`Word::new`] masks to 36 bits so arithmetic faithfully wraps the way the
/// 6180 would.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Word(u64);

/// Number of value bits in a machine word.
const WORD_BITS: u32 = 36;

/// Mask selecting the 36 value bits of a word.
pub const WORD_MASK: u64 = (1 << WORD_BITS) - 1;

/// Maximum length of a segment in words (2^18, the 6180 segment bound).
pub const MAX_SEG_WORDS: usize = 1 << 18;

impl Word {
    /// The all-zero word.
    pub const ZERO: Word = Word(0);

    /// Builds a word from the low 36 bits of `raw`.
    #[inline]
    pub const fn new(raw: u64) -> Word {
        Word(raw & WORD_MASK)
    }

    /// Returns the word value as a `u64` (always < 2^36).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Wrapping addition modulo 2^36.
    #[inline]
    #[must_use]
    pub const fn wrapping_add(self, rhs: Word) -> Word {
        Word((self.0 + rhs.0) & WORD_MASK)
    }

    /// Bitwise exclusive-or; useful for checksums and fault injection.
    #[inline]
    #[must_use]
    pub const fn xor(self, rhs: Word) -> Word {
        Word(self.0 ^ rhs.0)
    }
}

impl core::fmt::Debug for Word {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Multics convention: words print in octal.
        write!(f, "{:012o}", self.0)
    }
}

impl From<u64> for Word {
    fn from(raw: u64) -> Word {
        Word::new(raw)
    }
}

/// System-wide unique identifier for a segment.
///
/// In Multics every segment (and directory) carries a unique identifier
/// assigned at creation; the paper's file-system layering proposal has the
/// bottom kernel layer name segments *only* by unique identifier, with the
/// naming hierarchy built on top. All inter-layer interfaces in this
/// reproduction therefore traffic in `SegUid`, never in path names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegUid(pub u64);

impl core::fmt::Debug for SegUid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "uid#{:06x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_masks_to_36_bits() {
        assert_eq!(Word::new(u64::MAX).raw(), WORD_MASK);
        assert_eq!(Word::new(1 << 36).raw(), 0);
    }

    #[test]
    fn word_wrapping_add_wraps_at_2_pow_36() {
        let max = Word::new(WORD_MASK);
        assert_eq!(max.wrapping_add(Word::new(1)), Word::ZERO);
        assert_eq!(Word::new(5).wrapping_add(Word::new(7)).raw(), 12);
    }

    #[test]
    fn word_debug_prints_octal() {
        assert_eq!(format!("{:?}", Word::new(0o777)), "000000000777");
    }

    #[test]
    fn xor_is_involutive() {
        let a = Word::new(0o123456701234);
        let b = Word::new(0o707070707070);
        assert_eq!(a.xor(b).xor(b), a);
    }
}
