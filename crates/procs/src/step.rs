//! Cooperative jobs: the unit of simulated execution.
//!
//! A [`Job`] models a program counter: each call to [`Job::step`] performs a
//! bounded amount of work against the shared context `C` (typically the
//! kernel's world state, which includes the [`mks_hw::Machine`]) and reports
//! what the processor should do next. This is the deterministic stand-in for
//! real threads of control; it lets the scheduler interleave many activities
//! on one OS thread while the simulated clock accounts for their costs.

use crate::ipc::EventId;

/// What a job asks the processor to do after a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Still running; dispatch me again (subject to quantum).
    Continue,
    /// Voluntarily give up the processor but remain ready.
    Yield,
    /// Block until the given event is notified.
    Block(EventId),
    /// The job has terminated.
    Done,
}

/// Side effects a job may request during a step, beyond mutating `C`.
///
/// Jobs cannot call back into the scheduler that is polling them (it holds
/// them by `&mut`), so wakeups are queued here and delivered by the
/// scheduler immediately after the step returns — which also matches the
/// hardware reality that a wakeup is asynchronous to the target.
pub struct Effects<'a, C> {
    /// The shared simulation context.
    pub ctx: &'a mut C,
    pub(crate) wakeups: Vec<EventId>,
}

impl<'a, C> Effects<'a, C> {
    /// Creates an effects wrapper around `ctx`.
    pub fn new(ctx: &'a mut C) -> Effects<'a, C> {
        Effects {
            ctx,
            wakeups: Vec::new(),
        }
    }

    /// Queues a wakeup of `event`, delivered when this step completes.
    pub fn notify(&mut self, event: EventId) {
        self.wakeups.push(event);
    }

    /// Number of wakeups queued so far in this step (for tests/metrics).
    #[cfg(test)]
    fn queued_wakeups(&self) -> usize {
        self.wakeups.len()
    }
}

/// A cooperative job (coroutine) scheduled by the traffic controller.
pub trait Job<C> {
    /// Performs one bounded quantum of work.
    fn step(&mut self, eff: &mut Effects<'_, C>) -> Step;

    /// Human-readable name for traces and audits.
    fn name(&self) -> &str {
        "job"
    }
}

/// Adapter: builds a job from a closure, for tests and small daemons.
pub struct FnJob<F> {
    name: &'static str,
    f: F,
}

impl<F> FnJob<F> {
    /// Wraps closure `f` as a job called `name`.
    pub fn new(name: &'static str, f: F) -> FnJob<F> {
        FnJob { name, f }
    }
}

impl<C, F> Job<C> for FnJob<F>
where
    F: FnMut(&mut Effects<'_, C>) -> Step,
{
    fn step(&mut self, eff: &mut Effects<'_, C>) -> Step {
        (self.f)(eff)
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_job_steps_through_closure() {
        let mut count = 0;
        let mut job = FnJob::new("counter", move |_eff: &mut Effects<'_, ()>| {
            count += 1;
            if count < 3 {
                Step::Continue
            } else {
                Step::Done
            }
        });
        let mut ctx = ();
        let mut eff = Effects::new(&mut ctx);
        assert_eq!(job.step(&mut eff), Step::Continue);
        assert_eq!(job.step(&mut eff), Step::Continue);
        assert_eq!(job.step(&mut eff), Step::Done);
        assert_eq!(job.name(), "counter");
    }

    #[test]
    fn effects_queue_wakeups() {
        let mut ctx = ();
        let mut eff: Effects<'_, ()> = Effects::new(&mut ctx);
        eff.notify(EventId(5));
        eff.notify(EventId(6));
        assert_eq!(eff.queued_wakeups(), 2);
    }
}
