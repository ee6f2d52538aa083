//! Page tables and the Active Segment Table (AST).
//!
//! A segment becomes *active* when the supervisor gives it a page table; only
//! active segments can be addressed. The AST is the hardware-visible heart of
//! the virtual memory: each entry couples a segment's unique identifier with
//! its page table and current length. Page control (`mks-vm`) manipulates the
//! page-table words (PTWs) here; the processor ([`crate::Machine`]) reads
//! them during address translation and sets the used/modified bits exactly as
//! the 6180's appending unit did.

use mks_trace::digest::IdMap;

use crate::mem::{FrameId, PAGE_WORDS};
use crate::word::{SegUid, MAX_SEG_WORDS};

/// Where a page currently lives, from the processor's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageState {
    /// Resident in primary memory in the given frame.
    InCore(FrameId),
    /// Not in primary memory; a reference takes a missing-page fault.
    NotInCore,
}

/// One page-table word.
#[derive(Clone, Copy, Debug)]
pub struct Ptw {
    /// Residency state.
    pub state: PageState,
    /// Set by the hardware on any reference; cleared by replacement policy.
    pub used: bool,
    /// Set by the hardware on a store; tells page control the copy in the
    /// lower hierarchy levels is stale.
    pub modified: bool,
}

impl Ptw {
    /// A PTW for a page that has never been touched.
    const EMPTY: Ptw = Ptw {
        state: PageState::NotInCore,
        used: false,
        modified: false,
    };
}

/// A segment's page table.
#[derive(Clone, Debug)]
pub struct PageTable {
    ptws: Vec<Ptw>,
}

impl PageTable {
    /// Builds a page table covering `len_words` of segment.
    pub fn new(len_words: usize) -> PageTable {
        let pages = len_words.div_ceil(PAGE_WORDS);
        PageTable {
            ptws: vec![Ptw::EMPTY; pages],
        }
    }

    /// Number of pages.
    pub fn nr_pages(&self) -> usize {
        self.ptws.len()
    }

    /// Immutable PTW access. Panics if `page` is out of range (callers bound
    /// the page number by the segment length first).
    pub fn ptw(&self, page: usize) -> &Ptw {
        &self.ptws[page]
    }

    /// Mutable PTW access, for page control and the appending unit.
    pub fn ptw_mut(&mut self, page: usize) -> &mut Ptw {
        &mut self.ptws[page]
    }

    /// Grows the table to cover `len_words` (segment growth never shrinks the
    /// table here; truncation is a supervisor operation that also frees
    /// frames, handled in `mks-vm`).
    pub fn grow(&mut self, len_words: usize) {
        let pages = len_words.div_ceil(PAGE_WORDS);
        if pages > self.ptws.len() {
            self.ptws.resize(pages, Ptw::EMPTY);
        }
    }

    /// Iterates over `(page_number, &ptw)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Ptw)> {
        self.ptws.iter().enumerate()
    }
}

/// Index of an entry in the [`Ast`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AstIndex(pub u32);

/// One active segment.
#[derive(Debug)]
pub struct AstEntry {
    /// The segment's system-wide unique identifier.
    pub uid: SegUid,
    /// Its page table.
    pub pt: PageTable,
    /// Current length in words (bound checked by the hardware).
    pub len_words: usize,
}

/// The Active Segment Table.
#[derive(Debug, Default)]
pub struct Ast {
    entries: Vec<Option<AstEntry>>,
    free: Vec<u32>,
    by_uid: IdMap<SegUid, AstIndex>,
}

impl Ast {
    /// Creates an empty AST.
    pub fn new() -> Ast {
        Ast::default()
    }

    /// Activates a segment: gives it a page table and an AST slot.
    ///
    /// # Panics
    /// Panics if the segment is already active (the supervisor must check
    /// with [`Ast::find`] first) or if `len_words` exceeds the architectural
    /// segment bound.
    pub fn activate(&mut self, uid: SegUid, len_words: usize) -> AstIndex {
        assert!(len_words <= MAX_SEG_WORDS, "segment exceeds 2^18 words");
        assert!(
            !self.by_uid.contains_key(&uid),
            "segment {uid:?} already active"
        );
        let entry = AstEntry {
            uid,
            pt: PageTable::new(len_words),
            len_words,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(entry);
                AstIndex(i)
            }
            None => {
                self.entries.push(Some(entry));
                AstIndex((self.entries.len() - 1) as u32)
            }
        };
        self.by_uid.insert(uid, idx);
        idx
    }

    /// Deactivates a segment, returning its entry (page control must have
    /// already evicted its resident pages; this is asserted).
    pub fn deactivate(&mut self, idx: AstIndex) -> AstEntry {
        let entry = self.entries[idx.0 as usize].take().expect("AST slot empty");
        assert!(
            entry
                .pt
                .iter()
                .all(|(_, p)| p.state == PageState::NotInCore),
            "deactivating segment with resident pages"
        );
        self.by_uid.remove(&entry.uid);
        self.free.push(idx.0);
        entry
    }

    /// Finds the AST slot of an active segment.
    pub fn find(&self, uid: SegUid) -> Option<AstIndex> {
        self.by_uid.get(&uid).copied()
    }

    /// Borrows an entry. Panics on a stale index.
    pub fn entry(&self, idx: AstIndex) -> &AstEntry {
        self.entries[idx.0 as usize]
            .as_ref()
            .expect("stale AST index")
    }

    /// Mutably borrows an entry. Panics on a stale index.
    pub fn entry_mut(&mut self, idx: AstIndex) -> &mut AstEntry {
        self.entries[idx.0 as usize]
            .as_mut()
            .expect("stale AST index")
    }

    /// Number of currently active segments.
    pub fn nr_active(&self) -> usize {
        self.by_uid.len()
    }

    /// Iterates over active entries as `(index, &entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (AstIndex, &AstEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (AstIndex(i as u32), e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_sizes_round_up() {
        assert_eq!(PageTable::new(0).nr_pages(), 0);
        assert_eq!(PageTable::new(1).nr_pages(), 1);
        assert_eq!(PageTable::new(PAGE_WORDS).nr_pages(), 1);
        assert_eq!(PageTable::new(PAGE_WORDS + 1).nr_pages(), 2);
    }

    #[test]
    fn activate_find_deactivate_round_trip() {
        let mut ast = Ast::new();
        let uid = SegUid(7);
        let idx = ast.activate(uid, 2048);
        assert_eq!(ast.find(uid), Some(idx));
        assert_eq!(ast.entry(idx).pt.nr_pages(), 2);
        let e = ast.deactivate(idx);
        assert_eq!(e.uid, uid);
        assert_eq!(ast.find(uid), None);
        assert_eq!(ast.nr_active(), 0);
    }

    #[test]
    fn slots_are_reused() {
        let mut ast = Ast::new();
        let a = ast.activate(SegUid(1), 10);
        ast.deactivate(a);
        let b = ast.activate(SegUid(2), 10);
        assert_eq!(a.0, b.0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_activation_panics() {
        let mut ast = Ast::new();
        ast.activate(SegUid(1), 10);
        ast.activate(SegUid(1), 10);
    }

    #[test]
    #[should_panic(expected = "resident pages")]
    fn deactivating_resident_segment_panics() {
        let mut ast = Ast::new();
        let idx = ast.activate(SegUid(1), 10);
        ast.entry_mut(idx).pt.ptw_mut(0).state = PageState::InCore(FrameId(0));
        ast.deactivate(idx);
    }

    #[test]
    fn grow_extends_but_never_shrinks() {
        let mut pt = PageTable::new(PAGE_WORDS);
        pt.grow(3 * PAGE_WORDS);
        assert_eq!(pt.nr_pages(), 3);
        pt.grow(PAGE_WORDS);
        assert_eq!(pt.nr_pages(), 3);
    }
}
