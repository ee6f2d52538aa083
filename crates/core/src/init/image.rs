//! The memory-image start: initialize once, load forever after.
//!
//! The factory (which may be an ordinary user process of a *previous*
//! system — no privilege needed) runs the same logic as the bootstrap and
//! serializes the resulting [`InitState`] to a checksummed word image on
//! the system tape. A start then consists of exactly two privileged
//! operations: **load** the bit pattern and **verify** its checksum. The
//! certification story collapses from "audit twenty-odd ordered privileged
//! steps" to "audit a loader and a checksum" — and loads are bit-identical,
//! so E11's determinism check is exact hash equality.

use mks_hw::{Clock, Fnv64, Word};

use crate::config::KernelConfig;
use crate::init::{state_hash, target_state, InitState, InitTrace};

/// A system-tape image: a word vector plus its checksum word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryImage {
    /// Serialized initialized-state words.
    pub words: Vec<Word>,
    /// FNV checksum over `words`.
    pub checksum: Word,
}

/// Image-load failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImageError {
    /// Checksum mismatch: the tape is damaged or tampered with.
    BadChecksum,
    /// The image is structurally malformed.
    Malformed,
}

impl core::fmt::Display for ImageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ImageError::BadChecksum => write!(f, "image checksum mismatch"),
            ImageError::Malformed => write!(f, "image malformed"),
        }
    }
}

impl std::error::Error for ImageError {}

fn checksum(words: &[Word]) -> Word {
    let mut h = Fnv64::new();
    for w in words {
        h.word(w.raw());
    }
    Word::new(h.finish())
}

fn push_str(words: &mut Vec<Word>, s: &str) {
    words.push(Word::new(s.len() as u64));
    for b in s.bytes() {
        words.push(Word::new(u64::from(b)));
    }
}

fn read_str(words: &[Word], pos: &mut usize) -> Result<String, ImageError> {
    let len = words.get(*pos).ok_or(ImageError::Malformed)?.raw() as usize;
    *pos += 1;
    if len > 4096 {
        return Err(ImageError::Malformed);
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(words.get(*pos).ok_or(ImageError::Malformed)?.raw() as u8);
        *pos += 1;
    }
    String::from_utf8(bytes).map_err(|_| ImageError::Malformed)
}

/// The factory: runs the initialization logic (unprivileged — it builds a
/// *description*, not live protection state) and serializes the result.
pub fn build_image(cfg: &KernelConfig) -> MemoryImage {
    let state = target_state(cfg);
    let mut words = Vec::new();
    words.push(Word::new(u64::from(state.gate_entries)));
    words.push(Word::new(state.daemons.len() as u64));
    for d in &state.daemons {
        push_str(&mut words, d);
    }
    words.push(Word::new(state.supervisor_segments.len() as u64));
    for s in &state.supervisor_segments {
        push_str(&mut words, s);
    }
    words.push(Word::new(u64::from(state.mls_on)));
    words.push(Word::new(state.root_uid));
    let checksum = checksum(&words);
    MemoryImage { words, checksum }
}

/// Cycles to stream the image into memory (per word) and verify.
const LOAD_COST_PER_WORD: u64 = 2;

/// The start-time loader: the *only* privileged initialization code in
/// this pattern.
pub fn load_image(img: &MemoryImage, clock: &Clock) -> Result<(InitState, InitTrace), ImageError> {
    let t0 = clock.now();
    clock.advance(LOAD_COST_PER_WORD * img.words.len() as u64);
    if checksum(&img.words) != img.checksum {
        return Err(ImageError::BadChecksum);
    }
    let w = &img.words;
    let mut pos = 0usize;
    let gate_entries = w.get(pos).ok_or(ImageError::Malformed)?.raw() as u32;
    pos += 1;
    let nr_daemons = w.get(pos).ok_or(ImageError::Malformed)?.raw() as usize;
    pos += 1;
    if nr_daemons > 64 {
        return Err(ImageError::Malformed);
    }
    let mut daemons = Vec::with_capacity(nr_daemons);
    for _ in 0..nr_daemons {
        daemons.push(read_str(w, &mut pos)?);
    }
    let nr_segs = w.get(pos).ok_or(ImageError::Malformed)?.raw() as usize;
    pos += 1;
    if nr_segs > 64 {
        return Err(ImageError::Malformed);
    }
    let mut supervisor_segments = Vec::with_capacity(nr_segs);
    for _ in 0..nr_segs {
        supervisor_segments.push(read_str(w, &mut pos)?);
    }
    let mls_on = w.get(pos).ok_or(ImageError::Malformed)?.raw() != 0;
    pos += 1;
    let root_uid = w.get(pos).ok_or(ImageError::Malformed)?.raw();
    let state = InitState {
        gate_entries,
        daemons,
        supervisor_segments,
        mls_on,
        root_uid,
    };
    let trace = InitTrace {
        steps: vec!["load_image", "verify_checksum"],
        privileged_ops: 2,
        cycles: clock.now() - t0,
    };
    Ok((state, trace))
}

/// Convenience for experiments: hash of the state a load produces.
pub fn load_hash(img: &MemoryImage) -> Result<u64, ImageError> {
    let clock = Clock::new();
    let (state, _) = load_image(img, &clock)?;
    Ok(state_hash(&state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::bootstrap::bootstrap;

    #[test]
    fn image_load_reaches_the_same_state_as_bootstrap() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let clock = Clock::new();
            let (boot_state, boot_trace) = bootstrap(&cfg, &clock);
            let img = build_image(&cfg);
            let (img_state, img_trace) = load_image(&img, &clock).unwrap();
            assert_eq!(boot_state, img_state);
            assert_eq!(img_trace.privileged_ops, 2);
            assert!(boot_trace.privileged_ops >= 20);
        }
    }

    #[test]
    fn loads_are_bit_identical() {
        let img = build_image(&KernelConfig::kernel());
        let h1 = load_hash(&img).unwrap();
        let h2 = load_hash(&img).unwrap();
        assert_eq!(h1, h2);
    }

    #[test]
    fn tampered_images_are_rejected() {
        let mut img = build_image(&KernelConfig::kernel());
        img.words[0] = Word::new(img.words[0].raw() ^ 1);
        let clock = Clock::new();
        assert_eq!(load_image(&img, &clock), Err(ImageError::BadChecksum));
    }

    #[test]
    fn truncated_images_are_malformed_not_undefined() {
        let mut img = build_image(&KernelConfig::kernel());
        img.words.truncate(3);
        img.checksum = super::checksum(&img.words);
        let clock = Clock::new();
        assert!(matches!(
            load_image(&img, &clock),
            Err(ImageError::Malformed)
        ));
    }

    #[test]
    fn factory_needs_no_privilege_loader_needs_two_ops() {
        // The factory is a pure function of the configuration — the test
        // *is* the demonstration: no machine, no clock, no world needed.
        let img = build_image(&KernelConfig::kernel());
        assert!(!img.words.is_empty());
        let clock = Clock::new();
        let (_, trace) = load_image(&img, &clock).unwrap();
        assert_eq!(trace.steps, vec!["load_image", "verify_checksum"]);
    }
}
