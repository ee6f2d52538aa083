//! Explicit lock-ordering model for the multiprocessor kernel.
//!
//! The paper's kernel ran on a multiprocessor 6180 but took one global
//! lock around page control — an engineering concession the authors call
//! out. Challenging it safely needs what real lock engineering needs: a
//! declared partial order over the kernel's locks and a checker that the
//! running system never acquires against that order.
//!
//! This module is that checker. The simulation is single-threaded, so
//! these are not host mutexes: they are *model* locks. Every kernel path
//! that would hold a lock on real hardware brackets its critical section
//! with [`LockOrderHandle::acquire`]/[`release`](LockOrderHandle::release)
//! (or the RAII [`hold`](LockOrderHandle::hold)), and the tracker records
//!
//! * the **acquired-lock graph**: an edge `a -> b` whenever `b` is
//!   acquired while `a` is held,
//! * **order violations**: acquiring a lock whose rank is not strictly
//!   above every lock already held (including recursive acquisition),
//! * **contention touches**: deterministic markers for cross-CPU
//!   accesses (e.g. a work-steal probing another CPU's run queue).
//!
//! A run is deadlock-free by construction iff the audit shows zero
//! violations and the acquired graph is acyclic — exactly what
//! `exp_e19_parallel` machine-checks for both the global-lock baseline
//! arm and the per-CPU work-stealing arm.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Every lock the kernel model knows, in rank order. A lock may only be
/// acquired while every held lock has a strictly smaller rank, so the
/// declared total order here *is* the deadlock-freedom discipline:
///
/// 1. [`Kernel`](LockId::Kernel) — the paper's single global lock
///    (the baseline arm). Outermost by construction.
/// 2. [`TcRunQueue`](LockId::TcRunQueue)`(cpu)` — one per-CPU run-queue
///    lock; pairs (work-stealing) are acquired in ascending CPU index.
/// 3. [`PageControl`](LockId::PageControl) — page-control state.
/// 4. [`Ast`](LockId::Ast) — the active segment table.
/// 5. [`BulkMap`](LockId::BulkMap) — the bulk-store (paging drum) map.
/// 6. [`AuditLog`](LockId::AuditLog) — the security audit trail;
///    innermost so every path may append on its way out.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LockId {
    /// The global kernel lock (the paper's multiprocessor concession).
    Kernel,
    /// A per-CPU traffic-controller run-queue lock.
    TcRunQueue(u8),
    /// Page-control (frame allocation / eviction) state.
    PageControl,
    /// The active segment table.
    Ast,
    /// The bulk-store map.
    BulkMap,
    /// The audit log.
    AuditLog,
}

impl LockId {
    /// Stable display name (`tc.runq[3]`, `page_control`, ...).
    pub fn name(self) -> String {
        match self {
            LockId::Kernel => "kernel.global".to_string(),
            LockId::TcRunQueue(cpu) => format!("tc.runq[{cpu}]"),
            LockId::PageControl => "page_control".to_string(),
            LockId::Ast => "ast".to_string(),
            LockId::BulkMap => "bulk_map".to_string(),
            LockId::AuditLog => "audit_log".to_string(),
        }
    }
}

/// What the tracker has seen, in deterministic (rank-sorted) order.
#[derive(Clone, Debug, Default)]
pub struct LockAudit {
    /// Total acquisitions recorded.
    pub acquisitions: u64,
    /// Order violations (acquiring against rank, recursive acquisition,
    /// or releasing a lock that is not the top of the held stack).
    pub violations: u64,
    /// Human-readable notes for the first few violations.
    pub violation_notes: Vec<String>,
    /// The acquired-lock graph: `(held, acquired)` edges, deduplicated.
    pub edges: Vec<(LockId, LockId)>,
    /// Deterministic contention touches per lock.
    pub contended: Vec<(LockId, u64)>,
    /// A cycle in the acquired graph, if any (deadlock potential).
    pub cycle: Option<Vec<LockId>>,
}

impl LockAudit {
    /// True iff the run proved the discipline: at least one acquisition,
    /// zero violations, and an acyclic acquired graph.
    pub fn clean(&self) -> bool {
        self.acquisitions > 0 && self.violations == 0 && self.cycle.is_none()
    }

    /// Total contention touches across all locks.
    pub fn contended_total(&self) -> u64 {
        self.contended.iter().map(|(_, n)| *n).sum()
    }
}

#[derive(Debug, Default)]
struct LockOrder {
    held: Vec<LockId>,
    edges: BTreeSet<(LockId, LockId)>,
    acquisitions: u64,
    violations: u64,
    violation_notes: Vec<String>,
    contended: BTreeMap<LockId, u64>,
}

const MAX_NOTES: usize = 8;

impl LockOrder {
    fn note(&mut self, msg: String) {
        self.violations += 1;
        if self.violation_notes.len() < MAX_NOTES {
            self.violation_notes.push(msg);
        }
    }

    fn acquire(&mut self, id: LockId) {
        self.acquisitions += 1;
        if self.held.contains(&id) {
            self.note(format!("recursive acquisition of {}", id.name()));
        } else if let Some(&top) = self.held.last() {
            if id <= top {
                self.note(format!(
                    "acquired {} while holding {} (rank order violated)",
                    id.name(),
                    top.name()
                ));
            }
        }
        for &held in &self.held {
            if held != id {
                self.edges.insert((held, id));
            }
        }
        self.held.push(id);
    }

    fn release(&mut self, id: LockId) {
        match self.held.last() {
            Some(&top) if top == id => {
                self.held.pop();
            }
            _ => {
                self.note(format!("released {} out of LIFO order", id.name()));
                if let Some(pos) = self.held.iter().rposition(|&h| h == id) {
                    self.held.remove(pos);
                }
            }
        }
    }

    /// DFS over the edge set; returns a cycle as a lock path if one exists.
    fn find_cycle(&self) -> Option<Vec<LockId>> {
        let mut adjacent: BTreeMap<LockId, Vec<LockId>> = BTreeMap::new();
        for &(a, b) in &self.edges {
            adjacent.entry(a).or_default().push(b);
        }
        let mut done: BTreeSet<LockId> = BTreeSet::new();
        for &start in adjacent.keys() {
            if done.contains(&start) {
                continue;
            }
            let mut path: Vec<LockId> = Vec::new();
            if self.dfs(start, &adjacent, &mut path, &mut done) {
                return Some(path);
            }
        }
        None
    }

    fn dfs(
        &self,
        node: LockId,
        adjacent: &BTreeMap<LockId, Vec<LockId>>,
        path: &mut Vec<LockId>,
        done: &mut BTreeSet<LockId>,
    ) -> bool {
        if let Some(pos) = path.iter().position(|&n| n == node) {
            path.drain(..pos);
            path.push(node);
            return true;
        }
        if done.contains(&node) {
            return false;
        }
        path.push(node);
        if let Some(next) = adjacent.get(&node) {
            for &n in next {
                if self.dfs(n, adjacent, path, done) {
                    return true;
                }
            }
        }
        path.pop();
        done.insert(node);
        false
    }
}

/// Shared handle to the lock-order tracker, carried by every
/// [`Machine`](crate::Machine) exactly like the fault injector.
#[derive(Clone, Debug, Default)]
pub struct LockOrderHandle(Rc<RefCell<LockOrder>>);

impl LockOrderHandle {
    /// A fresh tracker with nothing held and nothing recorded.
    pub fn new() -> LockOrderHandle {
        LockOrderHandle::default()
    }

    /// Records acquiring `id`; flags rank-order and recursive violations.
    pub fn acquire(&self, id: LockId) {
        self.0.borrow_mut().acquire(id);
    }

    /// Records releasing `id`; flags non-LIFO releases.
    pub fn release(&self, id: LockId) {
        self.0.borrow_mut().release(id);
    }

    /// RAII acquisition: the lock is released when the guard drops.
    pub fn hold(&self, id: LockId) -> LockHold {
        self.acquire(id);
        LockHold {
            handle: self.clone(),
            id,
        }
    }

    /// Records a deterministic contention touch on `id` (e.g. a
    /// work-steal probing another CPU's run queue).
    pub fn note_contended(&self, id: LockId) {
        *self.0.borrow_mut().contended.entry(id).or_insert(0) += 1;
    }

    /// Total contention touches so far (cheap; read per scheduler tick).
    pub fn contended_total(&self) -> u64 {
        self.0.borrow().contended.values().sum()
    }

    /// Locks currently held (should be 0 between operations).
    #[cfg(test)]
    fn held_depth(&self) -> usize {
        self.0.borrow().held.len()
    }

    /// Snapshot of everything recorded, with cycle detection.
    pub fn audit(&self) -> LockAudit {
        let inner = self.0.borrow();
        LockAudit {
            acquisitions: inner.acquisitions,
            violations: inner.violations,
            violation_notes: inner.violation_notes.clone(),
            edges: inner.edges.iter().copied().collect(),
            contended: inner.contended.iter().map(|(&k, &v)| (k, v)).collect(),
            cycle: inner.find_cycle(),
        }
    }

    /// Clears all recorded state (held stack, edges, counters).
    pub fn reset(&self) {
        *self.0.borrow_mut() = LockOrder::default();
    }
}

/// RAII guard from [`LockOrderHandle::hold`].
pub struct LockHold {
    handle: LockOrderHandle,
    id: LockId,
}

impl Drop for LockHold {
    fn drop(&mut self) {
        self.handle.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_clean() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::PageControl);
        locks.acquire(LockId::Ast);
        locks.acquire(LockId::BulkMap);
        locks.release(LockId::BulkMap);
        locks.release(LockId::Ast);
        locks.release(LockId::PageControl);
        let audit = locks.audit();
        assert!(audit.clean(), "{audit:?}");
        assert_eq!(audit.acquisitions, 3);
        assert!(audit.edges.contains(&(LockId::PageControl, LockId::Ast)));
        assert!(audit.edges.contains(&(LockId::Ast, LockId::BulkMap)));
        assert!(audit
            .edges
            .contains(&(LockId::PageControl, LockId::BulkMap)));
        assert_eq!(locks.held_depth(), 0);
    }

    #[test]
    fn rank_order_violation_is_flagged() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::Ast);
        locks.acquire(LockId::PageControl); // against rank
        let audit = locks.audit();
        assert_eq!(audit.violations, 1);
        assert!(!audit.clean());
        assert!(audit.violation_notes[0].contains("rank order"));
    }

    #[test]
    fn recursive_acquisition_is_flagged() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::PageControl);
        locks.acquire(LockId::PageControl);
        assert_eq!(locks.audit().violations, 1);
    }

    #[test]
    fn non_lifo_release_is_flagged_but_recovers() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::PageControl);
        locks.acquire(LockId::Ast);
        locks.release(LockId::PageControl);
        assert_eq!(locks.audit().violations, 1);
        locks.release(LockId::Ast);
        assert_eq!(locks.held_depth(), 0);
    }

    #[test]
    fn cycle_in_acquired_graph_is_detected() {
        let locks = LockOrderHandle::new();
        // a -> b on one path, b -> a on another: deadlock potential even
        // though each path individually completed.
        locks.acquire(LockId::PageControl);
        locks.acquire(LockId::Ast);
        locks.release(LockId::Ast);
        locks.release(LockId::PageControl);
        locks.acquire(LockId::Ast);
        locks.acquire(LockId::PageControl);
        locks.release(LockId::PageControl);
        locks.release(LockId::Ast);
        let audit = locks.audit();
        let cycle = audit.cycle.expect("cycle must be found");
        assert!(cycle.len() >= 2);
        assert!(
            audit.violations > 0,
            "the reversed pair is also a violation"
        );
    }

    #[test]
    fn run_queue_pairs_in_index_order_are_clean() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::TcRunQueue(0));
        locks.acquire(LockId::TcRunQueue(3));
        locks.release(LockId::TcRunQueue(3));
        locks.release(LockId::TcRunQueue(0));
        assert!(locks.audit().clean());
    }

    #[test]
    fn raii_hold_releases_on_drop() {
        let locks = LockOrderHandle::new();
        {
            let _outer = locks.hold(LockId::PageControl);
            let _inner = locks.hold(LockId::Ast);
            assert_eq!(locks.held_depth(), 2);
        }
        assert_eq!(locks.held_depth(), 0);
        assert!(locks.audit().clean());
    }

    #[test]
    fn contention_touches_accumulate() {
        let locks = LockOrderHandle::new();
        locks.note_contended(LockId::TcRunQueue(1));
        locks.note_contended(LockId::TcRunQueue(1));
        locks.note_contended(LockId::PageControl);
        assert_eq!(locks.contended_total(), 3);
        let audit = locks.audit();
        assert_eq!(
            audit.contended,
            vec![(LockId::TcRunQueue(1), 2), (LockId::PageControl, 1)]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let locks = LockOrderHandle::new();
        locks.acquire(LockId::Ast);
        locks.reset();
        assert_eq!(locks.held_depth(), 0);
        assert_eq!(locks.audit().acquisitions, 0);
    }
}
