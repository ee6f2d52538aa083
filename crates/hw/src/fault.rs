//! Hardware faults.
//!
//! The hardware enforces nothing by itself except what the descriptors say;
//! every denied or unresolvable reference is reported as a [`Fault`] to the
//! software layer that installed the descriptors. Multics called several of
//! these "directed faults" — placeholders the supervisor plants in
//! descriptors so that first use traps back into it (missing segment,
//! missing page, unsnapped link).

use crate::ring::RingNo;
use crate::space::SegNo;

/// A fault raised by the simulated hardware during an access or call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Reference to a segment number with no descriptor.
    NoDescriptor {
        /// The unmapped segment number.
        seg: SegNo,
    },
    /// Word offset outside the segment's current bound.
    OutOfBounds {
        /// Segment referenced.
        seg: SegNo,
        /// Offending offset.
        offset: usize,
    },
    /// The access mode bits deny the attempted use.
    AccessViolation {
        /// Segment whose descriptor denied the access.
        seg: SegNo,
        /// What was attempted.
        attempted: AttemptKind,
    },
    /// The ring brackets deny the attempted use from the current ring.
    RingViolation {
        /// Segment whose brackets denied the access.
        seg: SegNo,
        /// Ring the processor was executing in.
        from_ring: RingNo,
        /// What was attempted.
        attempted: AttemptKind,
    },
    /// A cross-ring call targeted an offset that is not a gate entry point.
    NotAGate {
        /// Gate segment called.
        seg: SegNo,
        /// Offset that failed the call-limiter check.
        offset: usize,
    },
    /// Directed fault: segment known but not active (no page table).
    MissingSegment {
        /// The inactive segment.
        seg: SegNo,
    },
    /// Directed fault: page not in primary memory.
    MissingPage {
        /// Segment referenced.
        seg: SegNo,
        /// Page number within the segment.
        page: usize,
    },
    /// Directed fault: an unsnapped dynamic link was referenced.
    LinkageFault {
        /// Segment whose linkage section faulted.
        seg: SegNo,
        /// Index of the unsnapped link.
        link_index: usize,
    },
    /// An outward call (to a higher, less privileged ring) was attempted;
    /// the 6180 hardware does not support them directly.
    OutwardCall {
        /// Target segment.
        seg: SegNo,
        /// Caller's ring.
        from_ring: RingNo,
        /// Less privileged ring that would have been entered.
        to_ring: RingNo,
    },
}

/// The kind of reference that triggered an access or ring fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttemptKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch / transfer of control.
    Execute,
    /// Procedure call.
    Call,
}

impl Fault {
    /// True for the "directed" faults that the supervisor plants on purpose
    /// and services transparently (the reference is retried after service).
    #[cfg(test)]
    fn is_directed(&self) -> bool {
        matches!(
            self,
            Fault::MissingSegment { .. } | Fault::MissingPage { .. } | Fault::LinkageFault { .. }
        )
    }

    /// Short stable name of the fault kind, used as trace-record detail.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::NoDescriptor { .. } => "no_descriptor",
            Fault::OutOfBounds { .. } => "out_of_bounds",
            Fault::AccessViolation { .. } => "access_violation",
            Fault::RingViolation { .. } => "ring_violation",
            Fault::NotAGate { .. } => "not_a_gate",
            Fault::MissingSegment { .. } => "missing_segment",
            Fault::MissingPage { .. } => "missing_page",
            Fault::LinkageFault { .. } => "linkage_fault",
            Fault::OutwardCall { .. } => "outward_call",
        }
    }

    /// True for faults that signal an attempted protection violation.
    #[cfg(test)]
    fn is_violation(&self) -> bool {
        matches!(
            self,
            Fault::AccessViolation { .. }
                | Fault::RingViolation { .. }
                | Fault::NotAGate { .. }
                | Fault::OutwardCall { .. }
        )
    }
}

impl core::fmt::Display for Fault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Fault::NoDescriptor { seg } => write!(f, "no descriptor for segment {seg:?}"),
            Fault::OutOfBounds { seg, offset } => {
                write!(f, "offset {offset} out of bounds in segment {seg:?}")
            }
            Fault::AccessViolation { seg, attempted } => {
                write!(f, "{attempted:?} access denied by mode bits on {seg:?}")
            }
            Fault::RingViolation {
                seg,
                from_ring,
                attempted,
            } => {
                write!(
                    f,
                    "{attempted:?} from ring {from_ring} denied by brackets on {seg:?}"
                )
            }
            Fault::NotAGate { seg, offset } => {
                write!(f, "offset {offset} of {seg:?} is not a gate entry point")
            }
            Fault::MissingSegment { seg } => write!(f, "segment {seg:?} not active"),
            Fault::MissingPage { seg, page } => {
                write!(f, "page {page} of segment {seg:?} not in core")
            }
            Fault::LinkageFault { seg, link_index } => {
                write!(f, "unsnapped link {link_index} in segment {seg:?}")
            }
            Fault::OutwardCall {
                seg,
                from_ring,
                to_ring,
            } => {
                write!(
                    f,
                    "outward call from ring {from_ring} to ring {to_ring} of {seg:?}"
                )
            }
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SegNo;

    #[test]
    fn directed_and_violation_are_disjoint() {
        let faults = [
            Fault::NoDescriptor { seg: SegNo(1) },
            Fault::OutOfBounds {
                seg: SegNo(1),
                offset: 9,
            },
            Fault::AccessViolation {
                seg: SegNo(1),
                attempted: AttemptKind::Read,
            },
            Fault::RingViolation {
                seg: SegNo(1),
                from_ring: 4,
                attempted: AttemptKind::Write,
            },
            Fault::NotAGate {
                seg: SegNo(1),
                offset: 3,
            },
            Fault::MissingSegment { seg: SegNo(1) },
            Fault::MissingPage {
                seg: SegNo(1),
                page: 0,
            },
            Fault::LinkageFault {
                seg: SegNo(1),
                link_index: 2,
            },
            Fault::OutwardCall {
                seg: SegNo(1),
                from_ring: 0,
                to_ring: 4,
            },
        ];
        for f in faults {
            assert!(!(f.is_directed() && f.is_violation()), "{f}");
        }
    }

    #[test]
    fn display_is_informative() {
        let f = Fault::MissingPage {
            seg: SegNo(7),
            page: 3,
        };
        assert!(format!("{f}").contains("page 3"));
    }
}
