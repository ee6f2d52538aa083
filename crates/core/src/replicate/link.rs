//! The simulated replication link — hostile by construction.
//!
//! Every frame send consults the shared fault injector
//! ([`mks_hw::InjectorHandle`]) at the replication site classes, so a
//! seeded [`FaultPlan`](mks_hw::FaultPlan) deterministically drops,
//! duplicates, reorders and delays frames, and partitions one replica
//! off the link for a bounded window. Delivery is by simulated tick:
//! frames due at or before `now` arrive in `(deliver_at, send_seq)`
//! order, so the whole protocol run is a pure function of the genesis,
//! the workload seed and the fault plan.

use mks_hw::{InjectKind, InjectorHandle};

use super::frame::Frame;

/// Link-level accounting, exposed for experiments and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Frames submitted to the link.
    pub sent: u64,
    /// Frames handed to a receiver.
    pub delivered: u64,
    /// Frames dropped by a `ReplDrop` fault.
    pub dropped: u64,
    /// Frames enqueued twice by a `ReplDup` fault.
    pub duplicated: u64,
    /// Frames held back by a `ReplReorder` fault.
    pub reordered: u64,
    /// Frames given extra latency by a `ReplDelay` fault.
    pub delayed: u64,
    /// Frames eaten by an active partition window.
    pub partition_drops: u64,
}

/// One frame in flight.
#[derive(Clone, Debug)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    to: u32,
    bytes: Vec<u8>,
}

/// The link proper: an injector-mediated delay queue.
#[derive(Debug)]
pub struct Link {
    inject: InjectorHandle,
    replicas: u32,
    queue: Vec<InFlight>,
    next_seq: u64,
    /// An active partition: `(isolated replica, open until tick)`.
    partition: Option<(u32, u64)>,
    stats: LinkStats,
}

impl Link {
    /// A link between `replicas` endpoints, consulting `inject`.
    pub fn new(inject: InjectorHandle, replicas: u32) -> Link {
        Link {
            inject,
            replicas,
            queue: Vec::new(),
            next_seq: 0,
            partition: None,
            stats: LinkStats::default(),
        }
    }

    /// Accounting so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The active partition, if one is open at `now`.
    pub fn partitioned(&self, now: u64) -> Option<u32> {
        match self.partition {
            Some((iso, until)) if until > now => Some(iso),
            _ => None,
        }
    }

    /// Submits `frame` at tick `now`. The injector is consulted at each
    /// replication site class; an unlucky frame is dropped, duplicated,
    /// reordered (held so later frames overtake it), delayed, or eaten
    /// by a partition window opened by `ReplPartition`.
    pub fn send(&mut self, now: u64, frame: &Frame) {
        self.stats.sent += 1;
        if let Some(detail) = self.inject.fires(InjectKind::ReplPartition) {
            let iso = (detail % u64::from(self.replicas)) as u32;
            self.partition = Some((iso, now + 4 + (detail / 7) % 24));
        }
        if let Some(iso) = self.partitioned(now) {
            if frame.from == iso || frame.to == iso {
                self.stats.partition_drops += 1;
                return;
            }
        }
        if self.inject.fires(InjectKind::ReplDrop).is_some() {
            self.stats.dropped += 1;
            return;
        }
        let mut deliver_at = now + 1;
        if let Some(detail) = self.inject.fires(InjectKind::ReplDelay) {
            deliver_at = now + 2 + detail % 12;
            self.stats.delayed += 1;
        } else if self.inject.fires(InjectKind::ReplReorder).is_some() {
            // Held one extra tick: frames sent next tick overtake it.
            deliver_at = now + 2;
            self.stats.reordered += 1;
        }
        let bytes = frame.encode();
        let dup = self.inject.fires(InjectKind::ReplDup).is_some();
        self.enqueue(deliver_at, frame.to, bytes.clone());
        if dup {
            self.stats.duplicated += 1;
            self.enqueue(deliver_at + 1, frame.to, bytes);
        }
    }

    fn enqueue(&mut self, deliver_at: u64, to: u32, bytes: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(InFlight {
            deliver_at,
            seq,
            to,
            bytes,
        });
    }

    /// Removes and returns every frame due at or before `now`, in
    /// deterministic `(deliver_at, send order)` order.
    pub(crate) fn deliver_due(&mut self, now: u64) -> Vec<(u32, Vec<u8>)> {
        let mut due: Vec<InFlight> = Vec::new();
        let mut rest: Vec<InFlight> = Vec::new();
        for f in self.queue.drain(..) {
            if f.deliver_at <= now {
                due.push(f);
            } else {
                rest.push(f);
            }
        }
        self.queue = rest;
        due.sort_by_key(|f| (f.deliver_at, f.seq));
        self.stats.delivered += due.len() as u64;
        due.into_iter().map(|f| (f.to, f.bytes)).collect()
    }

    /// Frames still in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }
}
