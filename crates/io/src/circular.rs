//! The legacy circular input buffer.
//!
//! A fixed ring of message slots shared between the interrupt side (which
//! appends) and the consuming process (which drains). When the producer
//! laps the consumer, the oldest unconsumed message is silently destroyed —
//! the failure mode the paper's infinite-buffer simplification eliminates.
//! The loss accounting here is what experiment E7 plots against burst size.

/// Result of offering a message to the buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushOutcome {
    /// Stored without loss.
    Stored,
    /// Stored, but the oldest unconsumed message was overwritten and lost.
    OverwroteOldest,
}

/// A fixed-capacity circular message buffer.
#[derive(Debug)]
pub struct CircularBuffer<T> {
    slots: Vec<Option<T>>,
    head: usize, // next slot to consume
    tail: usize, // next slot to fill
    len: usize,
    overwrites: u64,
    stored: u64,
    consumed: u64,
}

impl<T> CircularBuffer<T> {
    /// Creates a buffer of `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> CircularBuffer<T> {
        assert!(capacity > 0, "circular buffer needs at least one slot");
        CircularBuffer {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            tail: 0,
            len: 0,
            overwrites: 0,
            stored: 0,
            consumed: 0,
        }
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Unconsumed messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a message; on a full buffer the oldest is destroyed (the
    /// producer is an interrupt handler — it cannot wait).
    pub fn push(&mut self, msg: T) -> PushOutcome {
        self.stored += 1;
        let cap = self.slots.len();
        let outcome = if self.len == cap {
            // Lap the consumer: destroy the oldest.
            self.slots[self.head] = None;
            self.head = (self.head + 1) % cap;
            self.len -= 1;
            self.overwrites += 1;
            PushOutcome::OverwroteOldest
        } else {
            PushOutcome::Stored
        };
        self.slots[self.tail] = Some(msg);
        self.tail = (self.tail + 1) % cap;
        self.len += 1;
        outcome
    }

    /// Consumes the oldest message.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let msg = self.slots[self.head]
            .take()
            .expect("len tracked a message here");
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        self.consumed += 1;
        Some(msg)
    }

    /// Messages destroyed by producer lapping.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// Messages ever offered.
    pub fn total_offered(&self) -> u64 {
        self.stored
    }

    /// Messages successfully consumed.
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_without_pressure() {
        let mut b = CircularBuffer::new(4);
        for i in 0..3 {
            assert_eq!(b.push(i), PushOutcome::Stored);
        }
        assert_eq!(b.pop(), Some(0));
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn lapping_destroys_the_oldest() {
        let mut b = CircularBuffer::new(2);
        b.push(1);
        b.push(2);
        assert_eq!(b.push(3), PushOutcome::OverwroteOldest);
        assert_eq!(b.overwrites(), 1);
        assert_eq!(b.pop(), Some(2), "1 was destroyed");
        assert_eq!(b.pop(), Some(3));
    }

    #[test]
    fn interleaved_producer_consumer_keeps_order() {
        let mut b = CircularBuffer::new(3);
        b.push(1);
        b.push(2);
        assert_eq!(b.pop(), Some(1));
        b.push(3);
        b.push(4); // fills again
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), Some(4));
        assert_eq!(b.overwrites(), 0);
    }

    #[test]
    fn burst_larger_than_capacity_loses_exactly_the_excess() {
        let mut b = CircularBuffer::new(8);
        for i in 0..20 {
            b.push(i);
        }
        assert_eq!(b.overwrites(), 12);
        assert_eq!(b.len(), 8);
        // Survivors are the 8 newest, in order.
        let got: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(got, (12..20).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_a_bug() {
        let _ = CircularBuffer::<u8>::new(0);
    }
}
