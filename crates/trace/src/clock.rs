//! The deterministic cycle clock.
//!
//! Every simulated hardware action advances a single global cycle counter.
//! The clock is shared (cheaply clonable) because many subsystems — the CPU,
//! page control's device models, the I/O buffers — all charge time against
//! the same timeline. The simulation is single-threaded and deterministic,
//! so interior mutability via [`core::cell::Cell`] is sufficient.
//!
//! The clock lives in `mks-trace` (the lowest crate in the dependency
//! order) so that the flight recorder can timestamp records itself;
//! `mks-hw` re-exports it under its historical paths.

use std::cell::Cell;
use std::rc::Rc;

/// A duration or instant measured in simulated machine cycles.
pub type Cycles = u64;

/// Shared simulated clock.
///
/// Cloning a `Clock` yields a handle onto the *same* timeline; use
/// [`Clock::default`] to start a fresh one at cycle zero.
#[derive(Clone, Debug, Default)]
pub struct Clock(Rc<Cell<Cycles>>);

impl Clock {
    /// Creates a new clock starting at cycle zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.0.get()
    }

    /// Advances the clock by `cycles` and returns the new time.
    #[inline]
    pub fn advance(&self, cycles: Cycles) -> Cycles {
        let t = self.0.get() + cycles;
        self.0.set(t);
        t
    }

    /// Advances the clock to `target` if it is in the future; returns the
    /// (possibly unchanged) current time. Used by event-driven device models
    /// that complete at an absolute deadline.
    #[inline]
    #[cfg(test)]
    fn advance_to(&self, target: Cycles) -> Cycles {
        if target > self.0.get() {
            self.0.set(target);
        }
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_a_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(10);
        b.advance(5);
        assert_eq!(a.now(), 15);
        assert_eq!(b.now(), 15);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = Clock::new();
        c.advance(100);
        assert_eq!(c.advance_to(50), 100);
        assert_eq!(c.advance_to(150), 150);
    }
}
