//! Cycle cost models for the two Multics CPU generations.
//!
//! The paper's "removal" program hinges on a hardware fact: on the Honeywell
//! 645 the protection rings were simulated in software, so a call that
//! crossed rings trapped into the supervisor and cost two to three orders of
//! magnitude more than an ordinary call. On the Honeywell 6180 the rings are
//! implemented in hardware and "calls from one ring to another now cost no
//! more than calls inside a ring". The two [`CostModel`]s below encode those
//! relative magnitudes; experiment E4 regenerates the comparison.
//!
//! Absolute values are in simulated cycles and are calibrated to the rough
//! instruction counts of the historical mechanisms (a 645 ring crossing
//! involved a fault, a supervisor-mode simulation of the descriptor checks,
//! stack environment swap and return — thousands of instructions; a 6180
//! cross-ring CALL is a single instruction plus hardware checks).

use crate::clock::Cycles;

/// Which historical CPU the machine simulates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CpuModel {
    /// Honeywell 645: software-simulated rings, expensive ring crossings.
    H645,
    /// Honeywell 6180: hardware rings, cross-ring calls at intra-ring cost.
    H6180,
}

impl CpuModel {
    /// Human-readable machine name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            CpuModel::H645 => "Honeywell 645",
            CpuModel::H6180 => "Honeywell 6180",
        }
    }
}

/// Per-operation cycle charges for a CPU model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Reading one word through the descriptor/page machinery.
    pub read_word: Cycles,
    /// Writing one word.
    pub write_word: Cycles,
    /// A call (and its eventual return) that stays within one ring.
    pub call_intra_ring: Cycles,
    /// A call that changes rings (through a gate or an access-bracket entry).
    pub call_cross_ring: Cycles,
    /// Taking any fault: saving machine conditions and entering the handler.
    pub fault_entry: Cycles,
    /// Dispatching a processor to a different virtual processor (swap DBR).
    pub processor_swap: Cycles,
    /// Sending an interprocess wakeup (connect instruction / interrupt cell).
    pub wakeup: Cycles,
    /// Taking an interrupt: save state, enter interceptor.
    pub interrupt_entry: Cycles,
    /// Latency of a page move between primary memory and the bulk store.
    pub page_move_primary_bulk: Cycles,
    /// Latency of a page move between the bulk store and disk.
    pub page_move_bulk_disk: Cycles,
}

impl CostModel {
    /// The cost model for a given CPU generation.
    pub(crate) fn for_model(model: CpuModel) -> CostModel {
        match model {
            // The 645: rings simulated by supervisor software. Crossing a
            // ring boundary faults into the ring-simulation code.
            CpuModel::H645 => CostModel {
                read_word: 2,
                write_word: 2,
                call_intra_ring: 40,
                call_cross_ring: 4_200,
                fault_entry: 600,
                processor_swap: 900,
                wakeup: 250,
                interrupt_entry: 700,
                page_move_primary_bulk: 6_000,
                page_move_bulk_disk: 60_000,
            },
            // The 6180: descriptor and ring checks in hardware; a cross-ring
            // CALL costs the same as an intra-ring CALL (the paper's claim),
            // modulo a few cycles of gate entry-point validation.
            CpuModel::H6180 => CostModel {
                read_word: 1,
                write_word: 1,
                call_intra_ring: 30,
                call_cross_ring: 32,
                fault_entry: 450,
                processor_swap: 700,
                wakeup: 180,
                interrupt_entry: 500,
                page_move_primary_bulk: 5_000,
                page_move_bulk_disk: 50_000,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h645_ring_crossing_is_orders_of_magnitude_dearer() {
        let c = CostModel::for_model(CpuModel::H645);
        assert!(c.call_cross_ring >= 50 * c.call_intra_ring);
    }

    #[test]
    fn h6180_ring_crossing_costs_no_more_than_10pct_extra() {
        let c = CostModel::for_model(CpuModel::H6180);
        assert!(c.call_cross_ring <= c.call_intra_ring + c.call_intra_ring / 10);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(CpuModel::H645.name(), "Honeywell 645");
        assert_eq!(CpuModel::H6180.name(), "Honeywell 6180");
    }
}
