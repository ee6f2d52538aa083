//! Event channels: the base-level IPC primitive.
//!
//! A channel is a rendezvous between `block` and `wakeup`. Multics semantics
//! (which this reproduces) are that a wakeup sent while nobody is waiting
//! sets the channel's *wakeup-waiting switch*, so the next block returns
//! immediately — wakeups are never lost, but they do not queue beyond one
//! (the switch is a flag, not a counter; producers that need counting build
//! it on shared memory above this primitive).
//!
//! Who may notify a channel is decided *above* this module: the kernel binds
//! channels to words of shared segments, so the ordinary memory-protection
//! machinery (SDW modes + ring brackets) governs IPC connectivity. That is
//! the paper's simplification: no separate IPC ACL mechanism exists.

use std::collections::HashMap;

/// Identifier of an event channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(pub u64);

#[derive(Debug)]
struct Channel<W> {
    /// Parties blocked on the channel, in arrival order.
    waiters: Vec<W>,
    /// The wakeup-waiting switch.
    pending: bool,
}

impl<W> Default for Channel<W> {
    fn default() -> Channel<W> {
        Channel {
            waiters: Vec::new(),
            pending: false,
        }
    }
}

/// The table of all event channels, generic over the waiter identity `W`
/// (virtual-processor index at layer 1, a process/vproc union in the full
/// traffic controller).
#[derive(Debug)]
pub struct EventTable<W> {
    channels: HashMap<EventId, Channel<W>>,
    next_id: u64,
}

impl<W> Default for EventTable<W> {
    fn default() -> EventTable<W> {
        EventTable {
            channels: HashMap::new(),
            next_id: 0,
        }
    }
}

impl<W: Copy + PartialEq> EventTable<W> {
    /// Creates an empty table.
    pub fn new() -> EventTable<W> {
        EventTable::default()
    }

    /// Allocates a fresh channel identifier.
    pub fn alloc(&mut self) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.channels.entry(id).or_default();
        id
    }

    /// A waiter asks to block on `event`.
    ///
    /// Returns `true` if the wakeup-waiting switch was set — the block
    /// completes immediately and the waiter stays ready. Returns `false` if
    /// it is now enqueued as a waiter and must be descheduled.
    pub fn block(&mut self, vp: W, event: EventId) -> bool {
        let ch = self.channels.entry(event).or_default();
        if ch.pending {
            ch.pending = false;
            true
        } else {
            ch.waiters.push(vp);
            false
        }
    }

    /// Sends a wakeup on `event`. Returns the waiters to make ready; if
    /// there were none, the wakeup-waiting switch is set instead.
    pub fn wakeup(&mut self, event: EventId) -> Vec<W> {
        let ch = self.channels.entry(event).or_default();
        if ch.waiters.is_empty() {
            ch.pending = true;
            Vec::new()
        } else {
            std::mem::take(&mut ch.waiters)
        }
    }

    /// Removes `vp` from any wait queues (used when destroying a process).
    pub(crate) fn cancel_waits(&mut self, vp: W) {
        for ch in self.channels.values_mut() {
            ch.waiters.retain(|w| *w != vp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vproc::VpIndex;

    #[test]
    fn wakeup_readies_waiters_in_order() {
        let mut t = EventTable::new();
        let e = t.alloc();
        assert!(!t.block(VpIndex(0), e));
        assert!(!t.block(VpIndex(1), e));
        assert_eq!(t.wakeup(e), vec![VpIndex(0), VpIndex(1)]);
    }

    #[test]
    fn wakeup_with_no_waiters_sets_pending_switch() {
        let mut t = EventTable::new();
        let e = t.alloc();
        assert!(t.wakeup(e).is_empty());
        // The next block completes immediately.
        assert!(t.block(VpIndex(0), e));
        // The switch is consumed: a second block waits.
        assert!(!t.block(VpIndex(0), e));
    }

    #[test]
    fn pending_switch_is_a_flag_not_a_counter() {
        let mut t = EventTable::new();
        let e = t.alloc();
        t.wakeup(e);
        t.wakeup(e);
        assert!(t.block(VpIndex(0), e));
        assert!(
            !t.block(VpIndex(0), e),
            "second wakeup must have been absorbed"
        );
    }

    #[test]
    fn cancel_waits_removes_the_vproc_everywhere() {
        let mut t = EventTable::new();
        let e1 = t.alloc();
        let e2 = t.alloc();
        t.block(VpIndex(3), e1);
        t.block(VpIndex(3), e2);
        t.cancel_waits(VpIndex(3));
        assert!(t.wakeup(e1).is_empty());
        assert!(t.wakeup(e2).is_empty());
    }

    #[test]
    fn distinct_channels_are_independent() {
        let mut t = EventTable::new();
        let e1 = t.alloc();
        let e2 = t.alloc();
        t.block(VpIndex(0), e1);
        assert!(t.wakeup(e2).is_empty());
        assert_eq!(t.wakeup(e1), vec![VpIndex(0)]);
    }
}
