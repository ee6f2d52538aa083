//! Page-control activity counters and fault-path metrics.
//!
//! Since the flight-recorder refactor, [`VmStats`] is a **view**: the
//! live store is the `mks-trace` metrics registry (page control writes
//! the [`keys`] below as it runs), and `VmWorld::stats()` materializes
//! a `VmStats` from the registry on demand. The struct keeps its
//! original shape so experiment drivers and tests read the same fields
//! they always did — but the counters and the registry cannot drift,
//! because the registry is the only accumulator.

use mks_hw::Cycles;
use mks_trace::MetricsRegistry;

/// Registry names under which page control publishes its metrics.
/// Counters unless noted; `FAULT_STEPS` and `FAULT_LATENCY` are
/// histograms (whose counts equal the `FAULTS` counter by
/// construction — one observation per recorded fault).
pub mod keys {
    /// Missing-page faults serviced (counter).
    pub const FAULTS: &str = "vm.faults";
    /// Pages loaded into primary memory (counter).
    pub(crate) const LOADS: &str = "vm.loads";
    /// Pages created by zero-fill (counter).
    pub(crate) const ZERO_FILLS: &str = "vm.zero_fills";
    /// Evictions from primary memory to the bulk store (counter).
    pub(crate) const EVICTIONS_CORE: &str = "vm.evictions_core";
    /// Evictions from the bulk store to disk (counter).
    pub(crate) const EVICTIONS_BULK: &str = "vm.evictions_bulk";
    /// Frames freed without write-back (counter).
    pub(crate) const CLEAN_DROPS: &str = "vm.clean_drops";
    /// Times a faulting process waited for a free frame (counter).
    pub(crate) const FAULT_WAITS: &str = "vm.fault_waits";
    /// Per-fault path step counts (histogram).
    pub(crate) const FAULT_STEPS: &str = "vm.fault_steps";
    /// Per-fault service latency in cycles (histogram).
    pub(crate) const FAULT_LATENCY: &str = "vm.fault_latency";
}

/// Counters kept by both page-control designs. Experiment E5 compares the
/// two designs' `fault_path_steps` distributions and latencies.
#[derive(Debug, Default, Clone)]
pub struct VmStats {
    /// Missing-page faults serviced.
    pub faults: u64,
    /// Pages loaded into primary memory.
    pub loads: u64,
    /// Pages created by zero-fill (first touch).
    pub zero_fills: u64,
    /// Evictions from primary memory to the bulk store.
    pub evictions_core: u64,
    /// Evictions from the bulk store to disk.
    pub evictions_bulk: u64,
    /// Clean drops (frame freed without a write-back).
    pub clean_drops: u64,
    /// Times a faulting process had to wait for a free frame.
    pub fault_waits: u64,
    /// Sum of per-fault path step counts (see [`VmStats::record_fault_path`]).
    pub fault_path_steps_total: u64,
    /// Worst per-fault path step count observed.
    pub fault_path_steps_max: u32,
    /// Sum of per-fault service latency in cycles.
    pub fault_latency_total: Cycles,
    /// Worst per-fault service latency.
    pub fault_latency_max: Cycles,
}

impl VmStats {
    /// Materializes the view from the live registry (the read half of
    /// the flight-recorder contract; the write half is in
    /// `VmWorld::record_fault_path` and the `bump` sites).
    pub(crate) fn from_registry(reg: &MetricsRegistry) -> VmStats {
        let steps = reg.histogram(keys::FAULT_STEPS);
        let latency = reg.histogram(keys::FAULT_LATENCY);
        VmStats {
            faults: reg.counter(keys::FAULTS),
            loads: reg.counter(keys::LOADS),
            zero_fills: reg.counter(keys::ZERO_FILLS),
            evictions_core: reg.counter(keys::EVICTIONS_CORE),
            evictions_bulk: reg.counter(keys::EVICTIONS_BULK),
            clean_drops: reg.counter(keys::CLEAN_DROPS),
            fault_waits: reg.counter(keys::FAULT_WAITS),
            fault_path_steps_total: steps.map_or(0, |h| h.total() as u64),
            fault_path_steps_max: steps.map_or(0, |h| h.max() as u32),
            fault_latency_total: latency.map_or(0, |h| h.total() as u64),
            fault_latency_max: latency.map_or(0, |h| h.max()),
        }
    }

    /// Records the completion of one fault service that took `steps`
    /// distinct actions and `latency` cycles. (On the live path this
    /// accumulation happens in the registry; the method remains for
    /// building expected values in tests.)
    #[cfg(test)]
    fn record_fault_path(&mut self, steps: u32, latency: Cycles) {
        self.faults += 1;
        self.fault_path_steps_total += u64::from(steps);
        self.fault_path_steps_max = self.fault_path_steps_max.max(steps);
        self.fault_latency_total += latency;
        self.fault_latency_max = self.fault_latency_max.max(latency);
    }

    /// Mean steps per fault path.
    pub fn mean_fault_steps(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.fault_path_steps_total as f64 / self.faults as f64
        }
    }

    /// Mean fault service latency in cycles.
    pub fn mean_fault_latency(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.fault_latency_total as f64 / self.faults as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fault_path_accumulates() {
        let mut s = VmStats::default();
        s.record_fault_path(3, 100);
        s.record_fault_path(7, 50);
        assert_eq!(s.faults, 2);
        assert_eq!(s.mean_fault_steps(), 5.0);
        assert_eq!(s.fault_path_steps_max, 7);
        assert_eq!(s.fault_latency_max, 100);
        assert_eq!(s.mean_fault_latency(), 75.0);
    }

    #[test]
    fn empty_stats_have_zero_means() {
        let s = VmStats::default();
        assert_eq!(s.mean_fault_steps(), 0.0);
        assert_eq!(s.mean_fault_latency(), 0.0);
    }

    #[test]
    fn view_materializes_from_registry() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(keys::FAULTS, 2);
        reg.counter_add(keys::LOADS, 5);
        reg.observe(keys::FAULT_STEPS, 3);
        reg.observe(keys::FAULT_STEPS, 7);
        reg.observe(keys::FAULT_LATENCY, 100);
        reg.observe(keys::FAULT_LATENCY, 50);
        let s = VmStats::from_registry(&reg);
        assert_eq!(s.faults, 2);
        assert_eq!(s.loads, 5);
        assert_eq!(s.mean_fault_steps(), 5.0);
        assert_eq!(s.fault_path_steps_max, 7);
        assert_eq!(s.fault_latency_total, 150);
        assert_eq!(s.fault_latency_max, 100);
    }
}
