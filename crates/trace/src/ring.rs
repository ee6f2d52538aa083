//! The bounded trace ring: overwrite-oldest, sequence numbers monotone.
//!
//! Deliberately the same shape as the paper's simplified circular I/O
//! buffers (`mks-io`'s `CircularBuffer`): a flight recorder must have
//! bounded memory, so under pressure it forgets the *oldest* history
//! rather than refusing new records or growing without limit.

use std::collections::VecDeque;

use crate::record::TraceRecord;

/// Fixed-capacity ring of [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records. Storage is
    /// not reserved up front: it grows as records arrive and stops at
    /// `capacity`, so a short-lived world (a replica, a replay target)
    /// pays only for what it records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> TraceRing {
        assert!(capacity > 0, "trace ring needs at least one slot");
        TraceRing {
            buf: VecDeque::new(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity, always).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sequence number the *next* appended record will get. Equals
    /// the total number of records ever appended.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Assigns the next sequence number to `record` and appends it,
    /// evicting the oldest record if the ring is full. Returns the
    /// assigned sequence number.
    pub fn append(&mut self, mut record: TraceRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        record.seq = seq;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        } else if self.buf.len() == self.buf.capacity() {
            // Grow geometrically, but never reserve past the bound.
            let want = (2 * self.buf.len()).max(8).min(self.capacity);
            self.buf.reserve_exact(want - self.buf.len());
        }
        self.buf.push_back(record);
        seq
    }

    /// Iterates records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Discards all held records (sequence numbering continues).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EventKind, Layer};

    fn rec(at: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            at,
            layer: Layer::Kernel,
            kind: EventKind::PageOp,
            principal: None,
            span: None,
            detail: "".into(),
        }
    }

    #[test]
    fn capacity_is_never_exceeded_and_seq_stays_monotone() {
        let mut r = TraceRing::new(8);
        for i in 0..100 {
            let seq = r.append(rec(i));
            assert_eq!(seq, i);
            assert!(r.len() <= 8);
        }
        assert_eq!(r.dropped(), 92);
        assert_eq!(r.next_seq(), 100);
        let seqs: Vec<u64> = r.iter().map(|x| x.seq).collect();
        assert_eq!(
            seqs,
            (92..100).collect::<Vec<_>>(),
            "oldest evicted, newest kept, in order"
        );

        // Storage grows on demand: nothing is reserved at creation, and
        // a small ring still drops exactly its oldest record once full.
        let mut small = TraceRing::new(3);
        assert_eq!(small.buf.capacity(), 0, "no storage reserved up front");
        for i in 0..3 {
            small.append(rec(i));
        }
        assert_eq!(small.dropped(), 0, "room for exactly `capacity` records");
        small.append(rec(3));
        assert_eq!(small.dropped(), 1);
        assert_eq!(small.len(), 3);
        let seqs: Vec<u64> = small.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "the oldest record went first");
    }
}
