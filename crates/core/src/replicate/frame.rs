//! The replication wire protocol: typed frames over the simulated link.
//!
//! Every frame carries the sender's epoch — the fencing term — so a
//! receiver can order protocol history without trusting the link's
//! delivery order. Frames are encoded with the same byte codec the
//! commit log uses ([`wire`](crate::statemachine::wire)), and decode
//! failures are *typed and counted, never fatal*: a hostile link can
//! corrupt a frame, and the worst it achieves is a retransmission.
//!
//! Snapshots travel as raw bytes inside [`Body::Snapshot`] so that
//! frame decoding stays genesis-free; the receiving replica decodes the
//! inner [`MachineSnapshot`](crate::statemachine::MachineSnapshot)
//! against its *own* genesis, which is where a foreign-genesis artifact
//! is refused.

use crate::statemachine::wire::{
    get_sealed, put_sealed, put_u32, put_u64, put_u8, Cursor, WireError, WIRE_VERSION,
};
use crate::statemachine::SealedCommit;

/// Magic prefix of an encoded replication frame.
const FRAME_MAGIC: [u8; 4] = *b"MKRF";

/// One replication message between two replicas.
#[derive(Clone, PartialEq, Debug)]
pub struct Frame {
    /// Sending replica.
    pub from: u32,
    /// Receiving replica.
    pub to: u32,
    /// The sender's epoch at send time — the fencing term carried by
    /// *every* frame, monotone per sender.
    pub epoch: u64,
    /// The payload.
    pub body: Body,
}

/// Frame payloads.
#[derive(Clone, PartialEq, Debug)]
pub enum Body {
    /// Primary → backup: sealed commits starting at `prev_len`, which
    /// the receiver accepts only if its own prefix head matches
    /// `prev_head` (the chain does the consistency proof).
    Append {
        /// Log length the seals extend from.
        prev_len: u64,
        /// Chain head of that prefix.
        prev_head: u64,
        /// Commits known majority-acknowledged, piggybacked.
        acked: u64,
        /// The seals themselves, contiguous from `prev_len`.
        seals: Vec<SealedCommit>,
    },
    /// Backup → primary: the receiver's log position after an append,
    /// acknowledged *by chain head* so a stale or divergent ack cannot
    /// be mistaken for progress.
    Ack {
        /// The backup's log length.
        len: u64,
        /// The chain head at that length.
        head: u64,
    },
    /// Backup → primary: an append was refused. `divergent` false means
    /// a gap (send more history); true means the logs disagree below
    /// `have_len` (snapshot catch-up required). Also sent in reply to a
    /// stale-epoch frame, carrying the refusing replica's higher epoch
    /// so a deposed primary learns it was fenced.
    Nack {
        /// The refusing replica's log length.
        have_len: u64,
        /// Its chain head.
        have_head: u64,
        /// Whether the histories conflict (vs. merely lag).
        divergent: bool,
    },
    /// Primary → backups: liveness beacon with the primary's position.
    Heartbeat {
        /// The primary's log length.
        len: u64,
        /// Its chain head.
        head: u64,
        /// Commits known majority-acknowledged.
        acked: u64,
    },
    /// Primary → backup: live state migration for a lagging or foreign
    /// replica — an encoded [`MachineSnapshot`]
    /// (`crate::statemachine::MachineSnapshot`) plus the log suffix
    /// above it.
    Snapshot {
        /// `wire::encode_snapshot` bytes, decoded against the
        /// receiver's genesis.
        snap: Vec<u8>,
        /// Seals above the snapshot's prefix.
        suffix: Vec<SealedCommit>,
    },
    /// Candidate → all: request a vote for the frame's epoch, carrying
    /// the candidate's log credentials for the up-to-dateness check.
    VoteRequest {
        /// Epoch of the candidate's last log entry.
        last_epoch: u64,
        /// The candidate's log length.
        len: u64,
    },
    /// Voter → candidate: one vote for the frame's epoch.
    VoteGrant,
    /// Replica → primary: a deposed primary tried to append on a stale
    /// epoch; the current primary seals an audit record so the fencing
    /// event lands in the replicated history itself.
    FenceReport {
        /// The deposed replica.
        deposed: u32,
        /// The stale epoch it tried to seal on.
        deposed_epoch: u64,
    },
}

impl Frame {
    /// Encodes the frame for the link.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        crate::statemachine::wire::put_u16(&mut buf, WIRE_VERSION);
        put_u32(&mut buf, self.from);
        put_u32(&mut buf, self.to);
        put_u64(&mut buf, self.epoch);
        match &self.body {
            Body::Append {
                prev_len,
                prev_head,
                acked,
                seals,
            } => {
                put_u8(&mut buf, 0);
                put_u64(&mut buf, *prev_len);
                put_u64(&mut buf, *prev_head);
                put_u64(&mut buf, *acked);
                put_u32(&mut buf, seals.len() as u32);
                for s in seals {
                    put_sealed(&mut buf, s);
                }
            }
            Body::Ack { len, head } => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, *len);
                put_u64(&mut buf, *head);
            }
            Body::Nack {
                have_len,
                have_head,
                divergent,
            } => {
                put_u8(&mut buf, 2);
                put_u64(&mut buf, *have_len);
                put_u64(&mut buf, *have_head);
                put_u8(&mut buf, u8::from(*divergent));
            }
            Body::Heartbeat { len, head, acked } => {
                put_u8(&mut buf, 3);
                put_u64(&mut buf, *len);
                put_u64(&mut buf, *head);
                put_u64(&mut buf, *acked);
            }
            Body::Snapshot { snap, suffix } => {
                put_u8(&mut buf, 4);
                crate::statemachine::wire::put_bytes(&mut buf, snap);
                put_u32(&mut buf, suffix.len() as u32);
                for s in suffix {
                    put_sealed(&mut buf, s);
                }
            }
            Body::VoteRequest { last_epoch, len } => {
                put_u8(&mut buf, 5);
                put_u64(&mut buf, *last_epoch);
                put_u64(&mut buf, *len);
            }
            Body::VoteGrant => put_u8(&mut buf, 6),
            Body::FenceReport {
                deposed,
                deposed_epoch,
            } => {
                put_u8(&mut buf, 7);
                put_u32(&mut buf, *deposed);
                put_u64(&mut buf, *deposed_epoch);
            }
        }
        buf
    }

    /// Decodes a frame with typed rejection; a corrupted frame costs
    /// the sender a retransmission, nothing more.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take(4)?;
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic {
                found: magic.try_into().unwrap(),
            });
        }
        let version = cur.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion { found: version });
        }
        let from = cur.u32()?;
        let to = cur.u32()?;
        let epoch = cur.u64()?;
        let body = match cur.u8()? {
            0 => {
                let prev_len = cur.u64()?;
                let prev_head = cur.u64()?;
                let acked = cur.u64()?;
                let count = cur.vec_len("Append.seals")?;
                let mut seals = Vec::new();
                for _ in 0..count {
                    seals.push(get_sealed(&mut cur)?);
                }
                Body::Append {
                    prev_len,
                    prev_head,
                    acked,
                    seals,
                }
            }
            1 => Body::Ack {
                len: cur.u64()?,
                head: cur.u64()?,
            },
            2 => Body::Nack {
                have_len: cur.u64()?,
                have_head: cur.u64()?,
                divergent: cur.bool("Nack.divergent")?,
            },
            3 => Body::Heartbeat {
                len: cur.u64()?,
                head: cur.u64()?,
                acked: cur.u64()?,
            },
            4 => {
                let snap = cur.bytes("Snapshot.snap")?.to_vec();
                let count = cur.vec_len("Snapshot.suffix")?;
                let mut suffix = Vec::new();
                for _ in 0..count {
                    suffix.push(get_sealed(&mut cur)?);
                }
                Body::Snapshot { snap, suffix }
            }
            5 => Body::VoteRequest {
                last_epoch: cur.u64()?,
                len: cur.u64()?,
            },
            6 => Body::VoteGrant,
            7 => Body::FenceReport {
                deposed: cur.u32()?,
                deposed_epoch: cur.u64()?,
            },
            tag => return Err(WireError::BadTag { what: "Body", tag }),
        };
        cur.done()?;
        Ok(Frame {
            from,
            to,
            epoch,
            body,
        })
    }
}
