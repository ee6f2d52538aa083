//! Heap allocations on the mediation hot path.
//!
//! Every reference is mediated, so whatever one warm `Monitor::read` or
//! `Monitor::call_gate` allocates is paid on every operation. The
//! instrumentation must not build strings per op: principals and sketch
//! names are rendered once, and only the export renders text. The
//! state-changing gates borrow the caller's principal instead of cloning
//! it, and revocation reads the ACL where the branch holds it. This test
//! counts the allocations of one warm operation with a counting global
//! allocator and pins them, so a regression that puts a `format!` or a
//! clone back on the path fails here instead of showing up as lost
//! throughput.
//!
//! The count is per thread, so other tests running in parallel do not
//! disturb it. The commit seal, which every replayable operation pays,
//! is pinned the same way.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use mks_fs::{Acl, AclMode};
use mks_hw::{RingBrackets, Word};
use mks_kernel::config::KernelConfig;
use mks_kernel::monitor::Monitor;
use mks_kernel::world::{admin_user, KProcId, System};
use mks_kernel::Commit;
use mks_mls::Label;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-local is gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a thread-local `Cell` with const initialization, so counting
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocations) made by `f` on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A kernel-configuration system with one process that owns a resident,
/// initiated segment.
fn world_with_segment() -> (System, KProcId, mks_hw::SegNo) {
    let mut sys = System::new(KernelConfig::kernel());
    let pid = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = sys.world.bind_root(pid);
    let seg = Monitor::create_segment(
        &mut sys.world,
        pid,
        root,
        "hot",
        Acl::of("*.*.*", AclMode::RW),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .expect("admin creates in the root");
    Monitor::write(&mut sys.world, pid, seg, 0, Word::new(0o52)).expect("write");
    (sys, pid, seg)
}

/// Runs `op` until the trace ring has wrapped, so the measured call sees
/// the steady state of a long-running kernel: every sketch, counter and
/// ring slot already exists, and the ring recycles instead of growing.
fn warm(sys: &mut System, mut op: impl FnMut(&mut System)) {
    for _ in 0..16 {
        op(sys);
    }
    while sys.world.vm.machine.trace.ring_stats().dropped == 0 {
        op(sys);
    }
    op(sys);
}

#[test]
fn warm_read_allocates_the_pinned_count() {
    let (mut sys, pid, seg) = world_with_segment();
    warm(&mut sys, |s| {
        Monitor::read(&mut s.world, pid, seg, 0).expect("warm read");
    });
    let (n, word) = allocs_of(|| Monitor::read(&mut sys.world, pid, seg, 0));
    assert_eq!(word, Ok(Word::new(0o52)));
    assert_eq!(n, 0, "heap allocations in one warm Monitor::read");
}

#[test]
fn warm_metering_gate_call_allocates_the_pinned_count() {
    let (mut sys, pid, _) = world_with_segment();
    warm(&mut sys, |s| {
        Monitor::call_gate(&mut s.world, pid, "hcs_", "metering_get").expect("warm gate call");
    });
    let (n, ring) = allocs_of(|| Monitor::call_gate(&mut sys.world, pid, "hcs_", "metering_get"));
    assert!(ring.is_ok());
    // The verdict line; the trace record shares the process's principal.
    assert_eq!(n, 1, "heap allocations in one warm Monitor::call_gate");
}

/// The ACL the mutation pins pass: a wildcard and two principals.
fn three_entry_acl() -> Acl<AclMode> {
    let mut acl = Acl::of("*.*.*", AclMode::RW);
    acl.add("Jones.CSR.a", AclMode::R);
    acl.add("Smith.Guest.a", AclMode::REW);
    acl
}

#[test]
fn warm_set_segment_acl_allocates_the_pinned_count() {
    let (mut sys, pid, _) = world_with_segment();
    let root = sys.world.bind_root(pid);
    warm(&mut sys, |s| {
        Monitor::set_segment_acl(&mut s.world, pid, root, "hot", three_entry_acl())
            .expect("warm set_segment_acl");
    });
    let acl = three_entry_acl();
    let (n, out) = allocs_of(|| Monitor::set_segment_acl(&mut sys.world, pid, root, "hot", acl));
    assert!(out.is_ok());
    assert_eq!(
        n, 5,
        "heap allocations in one warm Monitor::set_segment_acl"
    );
}

#[test]
fn warm_create_and_delete_allocate_the_pinned_counts() {
    let (mut sys, pid, _) = world_with_segment();
    let root = sys.world.bind_root(pid);
    let create = |s: &mut System, acl| {
        Monitor::create_segment(
            &mut s.world,
            pid,
            root,
            "transient",
            acl,
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
    };
    warm(&mut sys, |s| {
        create(s, three_entry_acl()).expect("warm create");
        Monitor::delete_segment(&mut s.world, pid, root, "transient").expect("warm delete");
    });
    let acl = three_entry_acl();
    let (n, out) = allocs_of(|| create(&mut sys, acl));
    assert!(out.is_ok());
    assert_eq!(
        n, 14,
        "heap allocations in one warm Monitor::create_segment"
    );
    let (n, out) = allocs_of(|| Monitor::delete_segment(&mut sys.world, pid, root, "transient"));
    assert!(out.is_ok());
    assert_eq!(n, 5, "heap allocations in one warm Monitor::delete_segment");
}

#[test]
fn warm_initiate_and_terminate_allocate_the_pinned_counts() {
    let (mut sys, pid, seg) = world_with_segment();
    let root = sys.world.bind_root(pid);
    Monitor::terminate(&mut sys.world, pid, seg).expect("unbind the creator's binding");
    warm(&mut sys, |s| {
        let seg = Monitor::initiate(&mut s.world, pid, root, "hot").expect("warm initiate");
        Monitor::terminate(&mut s.world, pid, seg).expect("warm terminate");
    });
    let (n, seg) = allocs_of(|| Monitor::initiate(&mut sys.world, pid, root, "hot"));
    let seg = seg.expect("initiate");
    assert_eq!(n, 5, "heap allocations in one warm Monitor::initiate");
    let (n, out) = allocs_of(|| Monitor::terminate(&mut sys.world, pid, seg));
    assert!(out.is_ok());
    assert_eq!(n, 2, "heap allocations in one warm Monitor::terminate");
}

#[test]
fn sealing_a_commit_allocates_nothing() {
    // Every applied commit is sealed, and an audit re-seals it three
    // more times: the seal streams the wire bytes into the digest.
    let mut acl = Acl::of("*.*.*", AclMode::R);
    for i in 0..8 {
        acl.add(&format!("P{i}.Proj.a"), AclMode::RW);
    }
    let commit = Commit::CreateSegment {
        pid: KProcId(1),
        dir: mks_hw::SegNo(0o100),
        name: "pool_17".into(),
        acl,
        brackets: RingBrackets::new(4, 4, 4),
        label: Label::BOTTOM,
    };
    let (n, seal) = allocs_of(|| commit.encoding_digest());
    assert_ne!(seal, 0);
    assert_eq!(n, 0, "heap allocations in one Commit::encoding_digest");
}
